package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"github.com/reliable-cda/cda/internal/resilience"
)

// envBlock records where the numbers were taken, so results from
// different machines can be read against their device.
type envBlock struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Kernel       string  `json:"kernel"`
	Filesystem   string  `json:"filesystem"`
	FsyncProbeUS float64 `json:"fsync_probe_us"`
}

// Filesystem magic numbers from statfs(2) worth naming.
var fsNames = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
}

const tmpfsMagic = 0x01021994

var errTmpfs = errors.New("data dir is on tmpfs: fsync would be free, refusing to measure")

// probeEnv fills the environment block and refuses a data dir on
// tmpfs, where the fsyncs that dominate a turn would cost nothing.
func probeEnv(ctx context.Context, clock resilience.Clock, dir string) (envBlock, error) {
	env := envBlock{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return env, fmt.Errorf("statfs %s: %w", dir, err)
	}
	magic := int64(st.Type) & 0xFFFFFFFF
	if magic == tmpfsMagic {
		return env, errTmpfs
	}
	env.Filesystem = fsNames[magic]
	if env.Filesystem == "" {
		env.Filesystem = fmt.Sprintf("0x%X", magic)
	}
	us, err := fsyncProbe(clock, dir)
	if err != nil {
		return env, err
	}
	env.FsyncProbeUS = us
	return env, nil
}

// fsyncProbe is the harness's own 4 KB append + fsync on the data
// dir's filesystem: the median of 50, in microseconds.
func fsyncProbe(clock resilience.Clock, dir string) (us float64, err error) {
	path := filepath.Join(dir, "fsync.probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if rerr := os.Remove(path); rerr != nil && err == nil {
			err = rerr
		}
	}()
	block := make([]byte, 4096)
	var samples []float64
	for i := 0; i < 50; i++ {
		t0 := clock.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(clock.Now()-t0)/1e3)
	}
	return percentile(samples, 50), nil
}
