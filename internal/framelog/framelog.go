// Package framelog is the storage spine: the one frame codec, the one
// append-only log, and the one atomic publish that every durable file
// in the module is written through. The version store's journal
// (chunks and root records in one log), replication frames on the wire
// and storage.SaveDir's CSVs differ only in the magic byte and in what
// the payload bytes mean; that schema stays with its owner, and
// everything a crash can interrupt lives here.
//
// Frame layout, identical for every log:
//
//	[magic 1B][payload length uint32 LE][payload crc32 (IEEE) uint32 LE][payload]
//
// The fixed header makes a torn tail detectable without a scan-back:
// a crash mid-append leaves a partial header, a partial payload, or a
// payload whose checksum no longer matches, and all three truncate to
// the last complete frame on Open. An Append of several frames is one
// write, so a torn one leaves a prefix of whole frames: an owner that
// needs the group to land together makes its last frame the one that
// gives the others meaning.
//
// Adding frames is group commit in two steps. Append writes them, under
// the owner's lock, which orders the log; Sync, called once that lock is
// released, returns when an fsync has covered them. One writer at a time
// leads that fsync, for every byte written before it started; the others
// wait for Synced() to pass their end, so writers that append while an
// fsync runs share the next one. Only after Sync may an owner acknowledge
// the frames to anyone. A failed fsync kills the log: every writer it
// covered fails, and every later operation until the file is reopened.
// DESIGN.md "Storage spine" states the torn-tail, append, failed-append
// and publish rules this package enforces.
package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// HeaderSize is the fixed frame header: magic, payload length, CRC.
const HeaderSize = 1 + 4 + 4

// Encode wraps payload in a frame.
func Encode(magic byte, payload []byte) []byte {
	buf := make([]byte, HeaderSize+len(payload))
	buf[0] = magic
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[5:9], crc32.ChecksumIEEE(payload))
	copy(buf[HeaderSize:], payload)
	return buf
}

// Scan decodes the longest valid frame prefix of raw. It returns each
// frame's payload — a sub-slice of raw, not a copy — and the offset of
// the end of the last complete frame. Everything from the first
// malformed frame on is untrusted (a torn append) and excluded.
func Scan(magic byte, raw []byte) (payloads [][]byte, valid int) {
	for {
		rest := raw[valid:]
		if len(rest) < HeaderSize || rest[0] != magic {
			return payloads, valid
		}
		n := binary.LittleEndian.Uint32(rest[1:5])
		if uint64(len(rest)-HeaderSize) < uint64(n) {
			return payloads, valid
		}
		payload := rest[HeaderSize : HeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[5:9]) {
			return payloads, valid
		}
		payloads = append(payloads, payload)
		valid += HeaderSize + int(n)
	}
}

// CutUvarint reads the canonical uvarint at the front of b, the what
// of a payload, and returns it with the bytes after it: one that is cut
// short, overflows or is longer than binary.AppendUvarint writes it is
// an error, so a payload of such fields has one spelling.
func CutUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("binary payload: %s is cut short or overflows", what)
	}
	if n != len(binary.AppendUvarint(nil, v)) {
		return 0, nil, fmt.Errorf("binary payload: %s is an overlong uvarint", what)
	}
	return v, b[n:], nil
}

// CutString reads a CutUvarint length and that many bytes from the
// front of b.
func CutString(b []byte, what string) (string, []byte, error) {
	n, rest, err := CutUvarint(b, what+" length")
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("binary payload: %s of %d bytes in %d", what, n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// ErrCrashed is returned by an Append torn by an injected crash fault
// (Faults.TornWrite), and by every operation on the log afterwards:
// the process is considered gone, and the harness reopens the file to
// exercise recovery.
var ErrCrashed = errors.New("framelog: simulated crash during append")

// Faults is the crash seam appends are threaded through;
// *faults.Injector implements it.
type Faults interface {
	TornWrite(op string, b []byte) ([]byte, bool)
}

// FsyncFaults is the seam an fsync is threaded through when the
// Options' Faults also implements it: Fsync runs before each fsync a
// writer leads, may hold it there, and a non-nil error stands for the
// fsync failing.
type FsyncFaults interface {
	Fsync(op string) error
}

// Options configures a Log.
type Options struct {
	// Op is the fault-injection operation name, e.g. "vstore.journal".
	Op string
	// Faults, when non-nil, may tear an append. Leave nil in production.
	Faults Faults
}

// Log is one append-only file of frames. Append, and Close, run under
// the owner's lock, which serializes them; ReadFrame needs only its
// shared side; Sync runs without it, concurrently with all of them.
type Log struct {
	f    *os.File
	path string
	opts Options

	mu   sync.Mutex // guards the fields below
	cond *sync.Cond // signalled when an fsync ends
	// size is the offset of the end of the last frame written: a failed
	// append rolls the file back to it. It moves only under the owner's
	// lock too, so a holder of that lock reads it without mu.
	size int64
	// synced is the end of the prefix an fsync has covered.
	synced int64
	// syncing: a writer is leading an fsync.
	syncing bool
	// dead, once set, fails every further append, and every Sync whose
	// end is past synced, until the file is reopened: after a simulated
	// crash, a failed fsync, or a failed append that could not be rolled
	// back, writing on would bury lost bytes under acknowledged ones.
	dead error
}

// Open opens (creating if absent) the log at path, offers every
// complete frame and its payload — both sub-slices of one read buffer —
// to accept in order, truncates the file after the last accepted frame
// (a torn tail, or a frame whose payload the owner cannot decode), and
// positions the log to append there.
func Open(path string, magic byte, opts Options, accept func(frame, payload []byte) bool) (*Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("framelog: read %s: %w", path, err)
	}
	payloads, _ := Scan(magic, raw)
	valid := 0
	for _, p := range payloads {
		end := valid + HeaderSize + len(p)
		if !accept(raw[valid:end], p) {
			break
		}
		valid = end
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framelog: open %s: %w", path, err)
	}
	// Nothing tells flushed bytes from ones a killed process only wrote,
	// so what Open accepts counts as flushed.
	l := &Log{f: f, path: path, opts: opts, size: int64(valid), synced: int64(valid)}
	l.cond = sync.NewCond(&l.mu)
	if valid < len(raw) {
		err = l.truncate(l.size)
	} else {
		_, err = f.Seek(l.size, io.SeekStart)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("framelog: position %s: %w", path, err), f.Close())
	}
	return l, nil
}

// truncate cuts the file to size and appends from there. Caller holds
// the owner's lock, and mu unless nothing else can reach the log yet.
func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.size = size
	return nil
}

// Dead reports whether the log refuses every further append until it
// is reopened: after a crash fault, a failed fsync, or a failed append
// that could not be rolled back.
func (l *Log) Dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead != nil
}

// Size is the offset of the end of the last frame written, which is
// where the first frame of the next Append will start.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Synced is the end of the flushed prefix: what a power cut cannot
// take. It trails Size() between an Append and the fsync that covers it.
func (l *Log) Synced() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// ReadFrame returns the payload of the frame that starts at off and
// carries n payload bytes: one ReadAt, accepted only if the frame ends
// at or below Size() and its magic, length and checksum verify through
// the Scan that recovery uses. Frames stay readable on a dead log. It
// may run concurrently with other ReadFrame calls and with Sync — the
// owner holds its lock in shared mode — not with Append or Close.
func (l *Log) ReadFrame(magic byte, off int64, n int) ([]byte, error) {
	if size := l.Size(); off < 0 || n < 0 || off+int64(HeaderSize+n) > size {
		return nil, fmt.Errorf("framelog: read %s: a %d-byte frame at offset %d does not end below the log's %d bytes", l.path, n, off, size)
	}
	buf := make([]byte, HeaderSize+n)
	if _, err := l.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("framelog: read %s at offset %d: %w", l.path, off, err)
	}
	if payloads, _ := Scan(magic, buf); len(payloads) == 1 && len(payloads[0]) == n {
		return payloads[0], nil
	}
	return nil, fmt.Errorf("framelog: read %s: no intact %d-byte frame at offset %d (magic, length or checksum mismatch)", l.path, n, off)
}

// Append writes already-encoded frames with one write and returns the
// offset where they end, which Sync takes: they are readable at once and
// acknowledged once Sync(end) has returned nil. The caller holds the
// owner's lock, which orders appends. When the write fails, whatever
// part reached the file is truncated away so a later append is not lost
// behind it; if that rollback fails too, the log goes dead. A crash
// fault persists the torn prefix, kills the log, and returns ErrCrashed.
func (l *Log) Append(frames ...[]byte) (int64, error) {
	l.mu.Lock()
	dead, start := l.dead, l.size
	l.mu.Unlock()
	if dead != nil {
		return 0, dead
	}
	buf := bytes.Join(frames, nil)
	if l.opts.Faults != nil {
		if cut, crashed := l.opts.Faults.TornWrite(l.opts.Op, buf); crashed {
			_, err := l.f.Write(cut)
			if err == nil {
				err = l.f.Sync()
			}
			l.kill(ErrCrashed)
			return 0, errors.Join(ErrCrashed, err)
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		err = fmt.Errorf("framelog: append %s: %w", l.path, err)
		l.mu.Lock()
		defer l.mu.Unlock()
		if rerr := l.truncate(start); rerr != nil {
			l.dead = fmt.Errorf("framelog: %s is unusable until reopened: rolling back a failed append: %w", l.path, rerr)
			return 0, errors.Join(err, l.dead)
		}
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.size += int64(len(buf))
	return l.size, nil
}

// kill makes err the log's death, unless it has died already, and
// wakes every writer waiting in Sync.
func (l *Log) kill(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead == nil {
		l.dead = err
	}
	l.cond.Broadcast()
}

// Sync returns once the flushed prefix reaches end: nil when an fsync
// has covered every byte before it, the log's death when it died first.
// The first writer to find no fsync running leads one, for every byte
// written when it starts; the rest wait for it and, if their bytes came
// after its start, lead or share the next. A failed fsync kills the log:
// the kernel may have dropped the pages it could not write, so nothing
// it covered can be promised. The caller does not hold the owner's lock.
func (l *Log) Sync(end int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < end {
		switch {
		case l.dead != nil:
			return l.dead
		case l.syncing:
			l.cond.Wait()
			continue
		}
		l.syncing = true
		l.mu.Unlock()
		var err error
		if ff, ok := l.opts.Faults.(FsyncFaults); ok {
			err = ff.Fsync(l.opts.Op)
		}
		l.mu.Lock()
		mark := l.size
		l.mu.Unlock()
		if err == nil {
			err = l.f.Sync()
		}
		l.mu.Lock()
		l.syncing = false
		if err != nil && l.dead == nil {
			l.dead = fmt.Errorf("framelog: %s is unusable until reopened: flush: %w", l.path, err)
		} else if err == nil {
			l.synced = max(l.synced, mark)
		}
		l.cond.Broadcast()
	}
	return nil
}

// Close releases the file handle.
func (l *Log) Close() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("framelog: close %s: %w", l.path, err)
	}
	return nil
}

// Publish atomically replaces path with what write emits: temp file,
// fsync, close, rename, fsync of the parent directory — so a crash
// leaves either the old file or the new one, never a mix, and the
// rename itself survives on filesystems that do not order directory
// updates with data writes.
func Publish(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("framelog: create temp %s: %w", tmp, err)
	}
	if err := write(f); err != nil {
		return errors.Join(fmt.Errorf("framelog: write %s: %w", tmp, err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("framelog: fsync %s: %w", tmp, err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("framelog: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("framelog: publish %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename into it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("framelog: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		return errors.Join(fmt.Errorf("framelog: fsync dir %s: %w", dir, err), d.Close())
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("framelog: close dir %s: %w", dir, err)
	}
	return nil
}
