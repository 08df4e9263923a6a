// Package framelog is the storage spine: the one frame codec, the one
// append-only log, and the one atomic publish that every durable file
// in the module is written through. The session store's WAL, the
// version store's journal (chunks and root records in one log),
// replication frames on the wire, shard snapshots and
// storage.SaveDir's CSVs differ only in the magic byte and in what the
// payload bytes mean; that schema stays with its owner, and everything
// a crash can interrupt lives here.
//
// Frame layout, identical for every log:
//
//	[magic 1B][payload length uint32 LE][payload crc32 (IEEE) uint32 LE][payload]
//
// The fixed header makes a torn tail detectable without a scan-back:
// a crash mid-append leaves a partial header, a partial payload, or a
// payload whose checksum no longer matches, and all three truncate to
// the last complete frame on Open. An Append of several frames is one
// write and one fsync, so a torn one leaves a prefix of whole frames:
// an owner that needs the group to land together makes its last frame
// the one that gives the others meaning.
//
// There are two ways to add frames. Append is write + fsync: what it
// acknowledges survives a power cut, and it is the only spelling an
// owner may acknowledge to anyone on. Write is the write alone: the
// frames are readable at once and survive a process kill, but a power
// cut may take them — any suffix of them, or a page out of their middle
// — until a later Append or Sync flushes the file. It is for an owner
// who can rebuild those frames from a log it did flush (the version
// journal's session versions, behind the session store's WAL), and who
// calls Sync before it gives that other log up. DESIGN.md "Storage
// spine" states the torn-tail, append, failed-append and publish rules
// this package enforces.
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

// Options configures a Log.
type Options struct {
	// Op is the fault-injection operation name, e.g. "wal.append".
	Op string
	// Faults, when non-nil, may tear an append. Leave nil in production.
	Faults Faults
}

// Log is one append-only file of frames. It is not safe for concurrent
// use; the owner serializes calls under its own lock, of which
// ReadFrame needs only the shared side.
type Log struct {
	f    *os.File
	path string
	opts Options
	// size is the offset of the end of the last acknowledged frame: a
	// failed append rolls the file back to it.
	size int64
	// synced is the end of the prefix known to be flushed: size after an
	// Append or Sync, behind it after a Write.
	synced int64
	// dead, once set, fails every further operation until the file is
	// reopened: after a simulated crash, or when a failed append could
	// not be rolled back, writing on would bury a partial frame under
	// acknowledged ones that the next Open would then truncate.
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
	// so what Open accepts counts as flushed; Sync never skips its fsync
	// on the strength of that.
	l := &Log{f: f, path: path, opts: opts, size: int64(valid), synced: int64(valid)}
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

// truncate cuts the file to size and appends from there.
func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.size = size
	l.synced = min(l.synced, size)
	return nil
}

// Dead reports whether the log refuses every further operation until
// it is reopened: after a crash fault, or a failed append that could
// not be rolled back.
func (l *Log) Dead() bool { return l.dead != nil }

// Size is the offset of the end of the last acknowledged frame, which
// is where the first frame of the next Append or Write will start.
func (l *Log) Size() int64 { return l.size }

// Synced is the end of the flushed prefix: what a power cut cannot
// take. It equals Size() except between a Write and the Append or Sync
// that follows it.
func (l *Log) Synced() int64 { return l.synced }

// ReadFrame returns the payload of the frame that starts at off and
// carries n payload bytes: one ReadAt, accepted only if the frame ends
// at or below Size() — flushed or not — and its magic, length and
// checksum verify through the Scan that recovery uses. Acknowledged
// frames stay readable on a dead log. Unlike the rest of Log, ReadFrame
// calls may run concurrently with each other — not with Append, Write,
// Sync, Reset or Close, which move Size() or the file under it.
func (l *Log) ReadFrame(magic byte, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(HeaderSize+n) > l.size {
		return nil, fmt.Errorf("framelog: read %s: a %d-byte frame at offset %d does not end below the log's %d bytes", l.path, n, off, l.size)
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

// Append writes already-encoded frames with one write and one fsync,
// which also flushes whatever earlier Writes left unflushed. When the
// write or the fsync fails, whatever part reached the file is truncated
// away so a later successful append is not lost behind it; if that
// rollback fails too — or the failed fsync covered earlier Writes,
// whose pages the kernel may have dropped — the log goes dead. A crash
// fault persists the torn prefix, kills the log, and returns ErrCrashed.
func (l *Log) Append(frames ...[]byte) error { return l.add(true, frames) }

// Write is Append without the fsync: one write, acknowledged once the
// kernel has it. The frames count toward Size() and are served by
// ReadFrame at once; Synced() stays where it was until the next Append
// or Sync. Failure and crash faults are handled as in Append.
func (l *Log) Write(frames ...[]byte) error { return l.add(false, frames) }

func (l *Log) add(flush bool, frames [][]byte) error {
	if l.dead != nil {
		return l.dead
	}
	if len(frames) == 0 {
		return nil
	}
	buf := frames[0]
	if len(frames) > 1 {
		buf = bytes.Join(frames, nil)
	}
	if l.opts.Faults != nil {
		if cut, crashed := l.opts.Faults.TornWrite(l.opts.Op, buf); crashed {
			l.dead = ErrCrashed
			_, err := l.f.Write(cut)
			if err == nil {
				err = l.f.Sync()
			}
			return errors.Join(ErrCrashed, err)
		}
	}
	_, err := l.f.Write(buf)
	if err == nil && flush {
		if err = l.f.Sync(); err != nil && l.synced < l.size {
			l.dead = fmt.Errorf("framelog: %s is unusable until reopened: flushing %d written bytes: %w", l.path, l.size-l.synced, err)
			return l.dead
		}
	}
	if err != nil {
		err = fmt.Errorf("framelog: append %s: %w", l.path, err)
		if rerr := l.truncate(l.size); rerr != nil {
			l.dead = fmt.Errorf("framelog: %s is unusable until reopened: rolling back a failed append: %w", l.path, rerr)
			return errors.Join(err, l.dead)
		}
		return err
	}
	l.size += int64(len(buf))
	if flush {
		l.synced = l.size
	}
	return nil
}

// Sync flushes what Writes left unflushed, after which Synced() equals
// Size(). A failed flush kills the log: the kernel may have dropped the
// pages it could not write, so frames this log acknowledged can no
// longer be promised, and an owner that was about to give up its redo
// log on the strength of this one must keep it.
func (l *Log) Sync() error {
	if l.dead != nil {
		return l.dead
	}
	if err := l.f.Sync(); err != nil {
		l.dead = fmt.Errorf("framelog: %s is unusable until reopened: flush: %w", l.path, err)
		return l.dead
	}
	l.synced = l.size
	return nil
}

// Reset empties the log (after its contents were folded into a
// published snapshot).
func (l *Log) Reset() error {
	if l.dead != nil {
		return l.dead
	}
	err := l.truncate(0)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("framelog: reset %s: %w", l.path, err)
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
