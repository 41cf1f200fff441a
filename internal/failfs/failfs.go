// Package failfs is the filesystem seam under every durable artifact in
// the repo: an interface the atomic-write layer (internal/atomicio), the
// integrity envelope (internal/seal) and the job store write through, with
// a passthrough implementation over package os and a deterministic seeded
// fault injector for chaos testing.
//
// The injector reproduces the disk failures that atomic-rename discipline
// alone cannot paper over: EIO/ENOSPC from any operation, a write torn at
// byte k, a rename whose data blocks were never synced (the "fsync lie" —
// the file appears but truncated, exactly what a power cut after a lying
// fsync leaves behind), silently short reads, and bit rot on the read
// path. Faults fire deterministically — on the Nth eligible operation, or
// with a seeded per-operation probability — so a failing chaos run replays
// exactly under the same seed.
//
// Production code calls Get() for the active filesystem; tests and the
// sopsd chaos lane install an injector with Swap (or the SOPS_FAILFS
// environment knob parsed by ParseEnv). The active FS is process-global:
// chaos tests scope their injectors with a Path filter so unrelated I/O in
// the same process is untouched.
package failfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// File is the subset of *os.File the artifact writers need.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Chmod(mode fs.FileMode) error
	Name() string
}

// FS is the filesystem surface durable artifacts are written and read
// through. *os.File satisfies File directly, so the passthrough
// implementation is free.
type FS interface {
	// CreateTemp creates a new temporary file in dir (os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the named file whole (os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to name non-atomically (os.WriteFile); the
	// atomic path goes through CreateTemp + Rename instead.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Rename moves oldpath over newpath (os.Rename).
	Rename(oldpath, newpath string) error
	// Remove deletes a file (os.Remove).
	Remove(name string) error
	// MkdirAll creates a directory tree (os.MkdirAll).
	MkdirAll(path string, perm fs.FileMode) error
	// Link creates newname as a hard link to oldname (os.Link).
	Link(oldname, newname string) error
	// Stat stats a file (os.Stat).
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making a completed rename inside it
	// durable against power failure. Implementations return nil on
	// platforms or filesystems where directories cannot be synced.
	SyncDir(dir string) error
}

// osFS is the passthrough implementation over package os.
type osFS struct{}

// OS is the real filesystem.
var OS FS = osFS{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Link(oldname, newname string) error           { return os.Link(oldname, newname) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems (and all of Windows) reject fsync on a
		// directory handle; the rename is still ordered there, so treat
		// "can't sync a directory" as success rather than failing the
		// commit.
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EBADF) {
			return nil
		}
		return err
	}
	return nil
}

// active is the process-global filesystem everything writes through.
var active atomic.Pointer[FS]

func init() {
	f := OS
	active.Store(&f)
}

// Get returns the active filesystem.
func Get() FS { return *active.Load() }

// Swap installs f as the active filesystem and returns a function that
// restores the previous one. Chaos tests defer the restore.
func Swap(f FS) (restore func()) {
	prev := active.Swap(&f)
	return func() { active.Store(prev) }
}

// Op names one filesystem operation class a fault can arm.
type Op uint8

// The operation classes faults attach to.
const (
	OpCreate  Op = iota // CreateTemp
	OpWrite             // File.Write
	OpSync              // File.Sync
	OpRename            // Rename
	OpRemove            // Remove
	OpMkdir             // MkdirAll
	OpRead              // ReadFile
	OpLink              // Link
	OpSyncDir           // SyncDir
)

var opNames = map[Op]string{
	OpCreate: "create", OpWrite: "write", OpSync: "sync", OpRename: "rename",
	OpRemove: "remove", OpMkdir: "mkdir", OpRead: "read", OpLink: "link",
	OpSyncDir: "syncdir",
}

// String returns the op's knob name ("write", "rename", ...).
func (o Op) String() string { return opNames[o] }

// opByName is the inverse of opNames, for ParseEnv.
func opByName(name string) (Op, bool) {
	for op, n := range opNames {
		if n == name {
			return op, true
		}
	}
	return 0, false
}

// Fault arms one failure. The zero value of every refinement means "return
// Err and do nothing"; the refinements select the nastier behaviors.
type Fault struct {
	// Op is the operation class this fault fires on.
	Op Op
	// Path, when non-empty, restricts the fault to operations whose path
	// contains it as a substring. Chaos tests always set it, scoping the
	// blast radius to their own temp directory.
	Path string
	// After skips the first After eligible operations; the fault fires on
	// the one after that. Ignored when Prob > 0.
	After uint64
	// Count caps how many times the fault fires; 0 means once. Use a large
	// Count for a persistently broken disk.
	Count uint64
	// Prob, when > 0, fires the fault with this per-operation probability
	// from the injector's seeded generator instead of the After counter.
	Prob float64
	// Err is the injected error; nil means EIO. Use syscall.ENOSPC for a
	// full disk.
	Err error

	// TornAt, on an OpWrite fault, writes only the first TornAt bytes and
	// then fails — a write torn mid-page.
	TornAt int
	// TruncateTo, on an OpRename fault (with Err == nil semantics
	// preserved: the rename SUCCEEDS), truncates the source file to
	// TruncateTo bytes before renaming it into place. This is the fsync
	// lie: the metadata landed, the data blocks did not. Set Err to also
	// fail the rename instead.
	TruncateTo int
	// ShortBy, on an OpRead fault, silently drops the last ShortBy bytes
	// of the result instead of returning an error.
	ShortBy int
	// FlipBit, on an OpRead fault, flips one bit of the returned data
	// instead of returning an error — deterministic bit rot. FlipBit
	// counts from 1 (so the zero value means "off"): the flipped bit is
	// index (FlipBit-1) mod the data's bit length.
	FlipBit int64

	fired uint64 // fires consumed (injector-internal)
}

// benign reports whether the fault corrupts data without returning an
// error (fsync lie, short read, bit flip).
func (f *Fault) benign() bool {
	return f.TruncateTo > 0 || f.ShortBy > 0 || f.FlipBit > 0
}

func (f *Fault) err() error {
	if f.Err != nil {
		return f.Err
	}
	return syscall.EIO
}

// Injector wraps a base FS and fires the armed faults deterministically.
// Safe for concurrent use.
type Injector struct {
	base FS

	mu     sync.Mutex
	rng    uint64
	faults []*Fault
	seen   map[string]uint64 // eligible-op counter per fault key
	log    []string
}

// NewInjector arms faults over base (nil base means the real filesystem).
// seed drives the probability draws; counter-based faults ignore it.
func NewInjector(base FS, seed uint64, faults ...Fault) *Injector {
	if base == nil {
		base = OS
	}
	in := &Injector{base: base, rng: seed ^ 0x9e3779b97f4a7c15, seen: make(map[string]uint64)}
	for i := range faults {
		f := faults[i]
		in.faults = append(in.faults, &f)
	}
	return in
}

// Fired returns a human-readable log of every fault that fired, for test
// assertions ("rename sops.ckpt (truncate to 7)").
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.log...)
}

// splitmix64 advances the injector's deterministic generator.
func (in *Injector) splitmix64() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// match returns the armed fault that fires for this operation, or nil.
func (in *Injector) match(op Op, path string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if f.Op != op || (f.Path != "" && !strings.Contains(path, f.Path)) {
			continue
		}
		max := f.Count
		if max == 0 {
			max = 1
		}
		if f.fired >= max {
			continue
		}
		if f.Prob > 0 {
			draw := float64(in.splitmix64()>>11) / (1 << 53)
			if draw >= f.Prob {
				continue
			}
		} else {
			key := fmt.Sprintf("%d:%s", i, op)
			in.seen[key]++
			if in.seen[key] <= f.After {
				continue
			}
		}
		f.fired++
		in.log = append(in.log, fmt.Sprintf("%s %s", op, filepath.Base(path)))
		return f
	}
	return nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if f := in.match(OpCreate, filepath.Join(dir, pattern)); f != nil {
		return nil, f.err()
	}
	file, err := in.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, in: in}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	data, err := in.base.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if f := in.match(OpRead, name); f != nil {
		switch {
		case f.ShortBy > 0:
			n := len(data) - f.ShortBy
			if n < 0 {
				n = 0
			}
			return data[:n], nil
		case f.FlipBit > 0:
			if len(data) > 0 {
				bit := (f.FlipBit - 1) % int64(len(data)*8)
				out := append([]byte(nil), data...)
				out[bit/8] ^= 1 << (bit % 8)
				return out, nil
			}
			return data, nil
		default:
			return nil, f.err()
		}
	}
	return data, nil
}

func (in *Injector) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if f := in.match(OpWrite, name); f != nil {
		if f.TornAt > 0 && f.TornAt < len(data) {
			in.base.WriteFile(name, data[:f.TornAt], perm)
		}
		return f.err()
	}
	return in.base.WriteFile(name, data, perm)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.match(OpRename, newpath); f != nil {
		if f.TruncateTo > 0 {
			// The fsync lie: truncate the staged data, let the rename
			// succeed. The destination now holds a torn artifact, exactly
			// as after a power cut that beat the data blocks to disk.
			if err := os.Truncate(oldpath, int64(f.TruncateTo)); err != nil {
				return err
			}
			return in.base.Rename(oldpath, newpath)
		}
		return f.err()
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if f := in.match(OpRemove, name); f != nil {
		return f.err()
	}
	return in.base.Remove(name)
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if f := in.match(OpMkdir, path); f != nil {
		return f.err()
	}
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) Link(oldname, newname string) error {
	if f := in.match(OpLink, newname); f != nil {
		return f.err()
	}
	return in.base.Link(oldname, newname)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) { return in.base.Stat(name) }

func (in *Injector) SyncDir(dir string) error {
	if f := in.match(OpSyncDir, dir); f != nil {
		return f.err()
	}
	return in.base.SyncDir(dir)
}

// faultFile consults the injector on the write path of one open file.
type faultFile struct {
	File
	in *Injector
}

func (f *faultFile) Write(p []byte) (int, error) {
	if ft := f.in.match(OpWrite, f.Name()); ft != nil {
		if ft.TornAt > 0 && ft.TornAt < len(p) {
			n, _ := f.File.Write(p[:ft.TornAt])
			return n, ft.err()
		}
		return 0, ft.err()
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if ft := f.in.match(OpSync, f.Name()); ft != nil {
		if ft.benign() {
			// A lying fsync reports success; pair it with a rename-time
			// TruncateTo fault to model the data loss it hides.
			return nil
		}
		return ft.err()
	}
	return f.File.Sync()
}

// ParseEnv builds an injector from a knob string, the format behind the
// SOPS_FAILFS environment variable:
//
//	seed=7|op=rename;path=checkpoint;after=3;err=enospc|op=read;path=.ckpt;flipbit=42;count=2
//
// Faults are separated by '|'; within a fault, ';'-separated key=value
// pairs set the Fault fields (op, path, after, count, prob, err, tornat,
// truncateto, shortby, flipbit). A bare seed=N element seeds the
// probability generator. err accepts "eio" and "enospc". An empty spec
// returns (nil, nil).
func ParseEnv(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var seed uint64
	var faults []Fault
	for _, part := range strings.Split(spec, "|") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var f Fault
		haveOp := false
		for _, kv := range strings.Split(part, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("failfs: bad knob %q (want key=value)", kv)
			}
			switch k {
			case "seed":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("failfs: bad seed %q", v)
				}
				seed = n
			case "op":
				op, ok := opByName(v)
				if !ok {
					return nil, fmt.Errorf("failfs: unknown op %q", v)
				}
				f.Op, haveOp = op, true
			case "path":
				f.Path = v
			case "after", "count":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("failfs: bad %s %q", k, v)
				}
				if k == "after" {
					f.After = n
				} else {
					f.Count = n
				}
			case "prob":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("failfs: bad prob %q", v)
				}
				f.Prob = p
			case "err":
				switch v {
				case "eio":
					f.Err = syscall.EIO
				case "enospc":
					f.Err = syscall.ENOSPC
				default:
					return nil, fmt.Errorf("failfs: unknown err %q (want eio or enospc)", v)
				}
			case "tornat", "truncateto", "shortby", "flipbit":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("failfs: bad %s %q", k, v)
				}
				switch k {
				case "tornat":
					f.TornAt = int(n)
				case "truncateto":
					f.TruncateTo = int(n)
					if n == 0 {
						f.TruncateTo = 1 // 0 would read as "unset"; 1 byte is as torn as 0
					}
				case "shortby":
					f.ShortBy = int(n)
				case "flipbit":
					f.FlipBit = n
				}
			default:
				return nil, fmt.Errorf("failfs: unknown knob %q", k)
			}
		}
		if haveOp {
			faults = append(faults, f)
		} else if !strings.Contains(part, "seed=") {
			return nil, fmt.Errorf("failfs: fault %q names no op", part)
		}
	}
	if len(faults) == 0 {
		return nil, nil
	}
	return NewInjector(OS, seed, faults...), nil
}
