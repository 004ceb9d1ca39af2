// Package labfs implements LabFS, the paper's example POSIX filesystem
// LabMod (§III-E): a log-structured, crash-consistent filesystem with
//
//   - a scalable per-worker block allocator (device blocks divided among
//     worker pools, with stealing);
//   - a per-worker-style metadata log as the only on-device metadata —
//     inodes are reconstructed in memory by traversing the log;
//   - a sharded in-memory inode hashmap supporting insert, rename and
//     delete with minimal contention;
//   - provenance tracking (creator and sequence recorded per inode).
//
// LabFS consumes POSIX file requests and produces block requests for the
// next LabMod in the stack (cache, scheduler, driver, ...).
package labfs

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"labstor/internal/core"
	"labstor/internal/mods/pushdown"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
	"labstor/internal/wal"
)

// Type is the registered module type name.
const Type = "labstor.labfs"

// Remaining data-path copy sites (telemetry copies/op audit): aligned
// full-block reads and writes move zero bytes inside LabFS; only partial
// blocks (bounce/RMW) and metadata-log staging still copy.
var (
	copyReadBounce = telemetry.CopySite("labfs.read_bounce")
	copyRMWStage   = telemetry.CopySite("labfs.rmw_stage")
	copyLogPad     = telemetry.CopySite("labfs.log_pad")
)

func init() {
	core.RegisterType(Type, func() core.Module { return &LabFS{} })
}

// Sentinel errors.
var (
	ErrNotFound = errors.New("labfs: no such file or directory")
	ErrExists   = errors.New("labfs: file exists")
	ErrIsDir    = errors.New("labfs: is a directory")
	ErrNotDir   = errors.New("labfs: not a directory")
	ErrNotEmpty = errors.New("labfs: directory not empty")
	// ErrLostWrite is fsync's report that a crash discarded metadata of the
	// file that had not reached the log: the data must be written again.
	ErrLostWrite = errors.New("labfs: write lost in a crash")
)

// LabFS is the filesystem module instance.
type LabFS struct {
	core.Base

	blockSize  int
	dataFirst  int64 // first data block; the log takes [0, dataFirst)
	dataBlocks int64

	table *inodeTable
	alloc *allocator
	log   *wal.Log
	seq   *atomic.Uint64 // last log sequence number handed out; shared across upgrades like log

	replayMu   sync.Mutex
	needReplay bool
	// lost holds the files whose in-memory state a replay could not rebuild
	// from the log; the next fsync of each reports ErrLostWrite once.
	// Guarded by replayMu.
	lost map[string]bool

	// opCount maps each handled op to its runtime metrics counter
	// ("labfs.<uuid>.<op>"). Built once in Configure, read-only after —
	// a map read plus one atomic add per request.
	opCount map[core.Op]*telemetry.Counter
	// pdStats are the shared pushdown.* counters (grep-offload scans).
	pdStats pushdown.Stats
}

// Info describes the module.
func (f *LabFS) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIPosix, Produces: core.APIBlock}
}

// Configure reads geometry from attributes:
//
//	device:   name of the backing device (required — sizes the allocator)
//	block_kb: filesystem block size in KiB (default 4)
//	log_mb:   metadata log region size in MiB (default 16)
//	shards:   inode hashmap shard count (default 64)
//	pools:    allocator pools / expected workers (default 16)
//	replay:   "true" to reconstruct state from an existing device log
func (f *LabFS) Configure(cfg core.Config, env *core.Env) error {
	if err := f.Base.Configure(cfg, env); err != nil {
		return err
	}
	devName := cfg.Attr("device", "")
	if devName == "" {
		return fmt.Errorf("labfs: vertex %q needs a 'device' attribute", cfg.UUID)
	}
	dev, err := env.Device(devName)
	if err != nil {
		return err
	}
	blockKB, _ := strconv.Atoi(cfg.Attr("block_kb", "4"))
	if blockKB < 1 {
		blockKB = 4
	}
	f.blockSize = blockKB << 10
	logMB, _ := strconv.Atoi(cfg.Attr("log_mb", "16"))
	if logMB < 1 {
		logMB = 16
	}
	logBlocks := int64(logMB<<20) / int64(f.blockSize)
	total := dev.Capacity() / int64(f.blockSize)
	if total <= logBlocks {
		return fmt.Errorf("labfs: device %q too small (%d blocks) for a %d-block log", devName, total, logBlocks)
	}
	f.dataFirst = logBlocks
	f.dataBlocks = total - logBlocks

	shards, _ := strconv.Atoi(cfg.Attr("shards", "64"))
	pools, _ := strconv.Atoi(cfg.Attr("pools", "16"))
	f.table = newInodeTable(shards)
	f.alloc = newAllocator(pools, f.dataFirst, f.dataBlocks)
	f.log = wal.New(f.blockSize, logBlocks, copyLogPad)
	f.seq = new(atomic.Uint64)
	f.needReplay = cfg.Attr("replay", "false") == "true"

	if env.Metrics != nil {
		name := cfg.UUID
		if name == "" {
			name = "labfs"
		}
		f.opCount = make(map[core.Op]*telemetry.Counter)
		for _, op := range []core.Op{
			core.OpCreate, core.OpOpen, core.OpMkdir, core.OpWrite, core.OpAppend,
			core.OpRead, core.OpStat, core.OpUnlink, core.OpRmdir, core.OpRename,
			core.OpTruncate, core.OpReaddir, core.OpFsync, core.OpClose,
			core.OpScan,
		} {
			f.opCount[op] = env.Metrics.Counter("labfs." + name + "." + op.String())
		}
	}
	f.pdStats = pushdown.Counters(env.Metrics)
	return nil
}

// BlockSize returns the filesystem block size.
func (f *LabFS) BlockSize() int { return f.blockSize }

// Files returns the number of inodes.
func (f *LabFS) Files() int { return f.table.Count() }

// FreeBlocks returns the allocator's free block count.
func (f *LabFS) FreeBlocks() int64 { return f.alloc.FreeBlocks() }

// Process dispatches a POSIX request.
func (f *LabFS) Process(e *core.Exec, req *core.Request) error {
	if err := f.maybeReplay(e, req); err != nil {
		return err
	}
	if c := f.opCount[req.Op]; c != nil {
		c.Inc()
	}
	switch req.Op {
	case core.OpCreate:
		return f.create(e, req, false)
	case core.OpOpen:
		return f.open(e, req)
	case core.OpMkdir:
		return f.create(e, req, true)
	case core.OpWrite, core.OpAppend:
		return f.write(e, req)
	case core.OpRead:
		return f.read(e, req)
	case core.OpStat:
		return f.stat(req)
	case core.OpUnlink:
		return f.unlink(e, req)
	case core.OpRmdir:
		return f.rmdir(e, req)
	case core.OpRename:
		return f.rename(e, req)
	case core.OpTruncate:
		return f.truncate(e, req)
	case core.OpReaddir:
		return f.readdir(req)
	case core.OpScan:
		return f.scanExec(e, req)
	case core.OpFsync, core.OpClose:
		return f.fsync(e, req)
	default:
		return fmt.Errorf("labfs: %w: %s", core.ErrNotSupported, req.Op)
	}
}

// chargeMeta models the metadata cost of an op: allocation/log/bookkeeping
// CPU plus (brief, sharded) serialization on the inode shard lock.
func (f *LabFS) chargeMeta(e *core.Exec, req *core.Request, path string) {
	model := e.Model
	hold := model.LabFSShardLockHold
	release := f.table.vlockFor(path).Acquire(req.Clock, hold)
	grant := release.Add(-hold)
	req.AdvanceTo(grant) // queueing on the shard (not CPU)
	req.Charge("fs_meta", model.FSMetadata+hold)
}

func (f *LabFS) maybeReplay(e *core.Exec, req *core.Request) error {
	f.replayMu.Lock()
	defer f.replayMu.Unlock()
	if !f.needReplay {
		return nil
	}
	f.needReplay = false
	var entries []logEntry
	err := f.log.Replay(e, req, func(rec []byte) error {
		ent, err := decodeEntry(rec)
		if err == nil {
			entries = append(entries, ent)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("labfs: replay: %w", err)
	}
	f.applyEntries(entries)
	return nil
}

// applyEntries rebuilds the inode table and allocator free lists from a
// decoded log. A file whose size or extents differ from its state before
// the replay had writes that never reached the log: it is marked lost.
// Callers hold replayMu.
func (f *LabFS) applyEntries(entries []logEntry) {
	before := make(map[string]*inode)
	f.table.ForEach(func(ino *inode) { before[ino.Path] = ino })
	f.table.Clear()
	used := make(map[int64]bool)
	for _, ent := range entries {
		if ent.Seq > f.seq.Load() {
			f.seq.Store(ent.Seq)
		}
		switch ent.Op {
		case logCreate, logMkdir:
			f.table.Put(&inode{
				Path: ent.Path, IsDir: ent.Op == logMkdir, Mode: ent.Mode,
				UID: ent.UID, GID: ent.GID, Blocks: make(map[int64]int64),
				CreatedBy: ent.UID, CreatedSeq: ent.Seq,
			})
		case logUnlink, logRmdir:
			if ino, ok := f.table.Delete(ent.Path); ok {
				for _, phys := range ino.Blocks {
					delete(used, phys)
				}
			}
		case logRename:
			_ = f.table.Rename(ent.Path, ent.Path2)
		case logExtent:
			if ino, ok := f.table.Get(ent.Path); ok {
				ino.Blocks[ent.BlockIdx] = ent.Phys
				used[ent.Phys] = true
			}
		case logSetSize, logTruncate:
			if ino, ok := f.table.Get(ent.Path); ok {
				ino.Size = ent.Size
				if ent.Op == logTruncate {
					limit := (ent.Size + int64(f.blockSize) - 1) / int64(f.blockSize)
					for idx, phys := range ino.Blocks {
						if idx >= limit {
							delete(used, phys)
							delete(ino.Blocks, idx)
						}
					}
				}
			}
		}
	}
	// Rebuild the allocator: everything in the data region not referenced
	// by a live extent is free.
	pools := f.alloc.Pools()
	fresh := newEmptyAllocator(pools)
	per := f.dataBlocks/int64(pools) + 1
	p := 0
	count := int64(0)
	for b := f.dataFirst; b < f.dataFirst+f.dataBlocks; b++ {
		if used[b] {
			continue
		}
		fresh.pools[p] = append(fresh.pools[p], b)
		count++
		if count%per == 0 && p < pools-1 {
			p++
		}
	}
	f.alloc = fresh

	for path, old := range before {
		if ino, ok := f.table.Get(path); ok && !sameExtents(old, ino) {
			if f.lost == nil {
				f.lost = make(map[string]bool)
			}
			f.lost[path] = true
		}
	}
}

// sameExtents reports whether two versions of a file agree on its size and
// its block map.
func sameExtents(a, b *inode) bool {
	if a.Size != b.Size || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for idx, phys := range a.Blocks {
		if p, ok := b.Blocks[idx]; !ok || p != phys {
			return false
		}
	}
	return true
}

// logAppend appends ent under the next sequence number. The log
// checkpoints from f.snapshot when its region is nearly full.
func (f *LabFS) logAppend(e *core.Exec, req *core.Request, ent logEntry) error {
	var scratch [128]byte
	ent.Seq = f.seq.Add(1)
	return f.log.Append(e, req, appendEntry(scratch[:0], &ent), f.snapshot)
}

// snapshot emits the current state as create + extent + size entries per
// inode: a checkpoint's image of the filesystem.
func (f *LabFS) snapshot(emit func(rec []byte) error) error {
	var buf []byte
	var err error
	put := func(ent logEntry) {
		if err == nil {
			ent.Seq = f.seq.Add(1)
			buf = appendEntry(buf[:0], &ent)
			err = emit(buf)
		}
	}
	f.table.ForEach(func(ino *inode) {
		op := logCreate
		if ino.IsDir {
			op = logMkdir
		}
		put(logEntry{Op: op, Path: ino.Path, Mode: ino.Mode, UID: ino.UID, GID: ino.GID})
		for idx, phys := range ino.Blocks {
			put(logEntry{Op: logExtent, Path: ino.Path, BlockIdx: idx, Phys: phys})
		}
		put(logEntry{Op: logSetSize, Path: ino.Path, Size: ino.Size})
	})
	return err
}

// --- metadata ops -------------------------------------------------------------

func (f *LabFS) create(e *core.Exec, req *core.Request, dir bool) error {
	f.chargeMeta(e, req, req.Path)
	req.Charge("fs_meta", e.Model.LabFSCreate)
	ino := &inode{
		Path: req.Path, IsDir: dir, Mode: req.Mode,
		UID: req.Cred.UID, GID: req.Cred.GID,
		Blocks:    make(map[int64]int64),
		CreatedBy: req.Cred.UID,
	}
	existing, created := f.table.Create(ino)
	if !created {
		if req.Flags&core.FlagExcl != 0 || dir {
			req.Err = fmt.Errorf("%w: %q", ErrExists, req.Path)
			return req.Err
		}
		if req.Flags&core.FlagTrunc != 0 {
			return f.truncateTo(e, req, existing, 0)
		}
		return nil
	}
	op := logCreate
	if dir {
		op = logMkdir
	}
	return f.logAppend(e, req, logEntry{Op: op, Path: req.Path, Mode: req.Mode, UID: req.Cred.UID, GID: req.Cred.GID})
}

func (f *LabFS) open(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		if req.Flags&core.FlagCreate != 0 {
			return f.create(e, req, false)
		}
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	if ino.IsDir {
		req.Err = fmt.Errorf("%w: %q", ErrIsDir, req.Path)
		return req.Err
	}
	if req.Flags&core.FlagExcl != 0 && req.Flags&core.FlagCreate != 0 {
		req.Err = fmt.Errorf("%w: %q", ErrExists, req.Path)
		return req.Err
	}
	if req.Flags&core.FlagTrunc != 0 {
		return f.truncateTo(e, req, ino, 0)
	}
	req.Result = ino.Size
	return nil
}

func (f *LabFS) stat(req *core.Request) error {
	ino, ok := f.table.Get(req.Path)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	req.Result = ino.Size
	req.Mode = ino.Mode
	if ino.IsDir {
		req.Flags |= 1 << 16 // directory marker for callers
	}
	return nil
}

func (f *LabFS) unlink(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	if ino.IsDir {
		req.Err = fmt.Errorf("%w: %q", ErrIsDir, req.Path)
		return req.Err
	}
	f.table.Delete(req.Path)
	for _, phys := range ino.Blocks {
		f.alloc.Free(e.WorkerID, phys)
	}
	return f.logAppend(e, req, logEntry{Op: logUnlink, Path: req.Path})
}

func (f *LabFS) rmdir(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	if !ino.IsDir {
		req.Err = fmt.Errorf("%w: %q", ErrNotDir, req.Path)
		return req.Err
	}
	if len(f.table.List(req.Path)) > 0 {
		req.Err = fmt.Errorf("%w: %q", ErrNotEmpty, req.Path)
		return req.Err
	}
	f.table.Delete(req.Path)
	return f.logAppend(e, req, logEntry{Op: logRmdir, Path: req.Path})
}

func (f *LabFS) rename(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	// POSIX rename replaces an existing target: reclaim its blocks.
	if victim, ok := f.table.Get(req.Path2); ok {
		if victim.IsDir {
			req.Err = fmt.Errorf("%w: %q", ErrIsDir, req.Path2)
			return req.Err
		}
		for _, phys := range victim.Blocks {
			f.alloc.Free(e.WorkerID, phys)
		}
		f.table.Delete(req.Path2)
		if err := f.logAppend(e, req, logEntry{Op: logUnlink, Path: req.Path2}); err != nil {
			return err
		}
	}
	if err := f.table.Rename(req.Path, req.Path2); err != nil {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	return f.logAppend(e, req, logEntry{Op: logRename, Path: req.Path, Path2: req.Path2})
}

func (f *LabFS) readdir(req *core.Request) error {
	if req.Path != "" && req.Path != "/" {
		ino, ok := f.table.Get(req.Path)
		if !ok {
			req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
			return req.Err
		}
		if !ino.IsDir {
			req.Err = fmt.Errorf("%w: %q", ErrNotDir, req.Path)
			return req.Err
		}
	}
	req.Names = f.table.List(req.Path)
	req.Result = int64(len(req.Names))
	return nil
}

func (f *LabFS) truncate(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	return f.truncateTo(e, req, ino, req.Offset)
}

func (f *LabFS) truncateTo(e *core.Exec, req *core.Request, ino *inode, size int64) error {
	bs := int64(f.blockSize)
	limit := (size + bs - 1) / bs
	for idx, phys := range ino.Blocks {
		if idx >= limit {
			f.alloc.Free(e.WorkerID, phys)
			delete(ino.Blocks, idx)
		}
	}
	// Zero the tail of the boundary block: if the file is later extended,
	// the region between the old truncation point and the new data must
	// read as zeros (POSIX), not as stale block content.
	if inBlock := size % bs; inBlock != 0 {
		if phys, ok := ino.Blocks[size/bs]; ok {
			blockBuf := core.AcquireBuf(f.blockSize)
			defer core.ReleaseBuf(blockBuf)
			rc := req.Child(core.OpBlockRead)
			rc.Offset = phys * bs
			rc.Size = f.blockSize
			rc.Data = blockBuf
			err := e.Next(rc)
			rc.Data = nil
			if err == nil {
				req.Absorb(rc)
			}
			rc.Release()
			if err != nil {
				return err
			}
			for i := inBlock; i < bs; i++ {
				blockBuf[i] = 0
			}
			wc := req.Child(core.OpBlockWrite)
			wc.Offset = phys * bs
			wc.Size = f.blockSize
			wc.Data = blockBuf
			err = e.Next(wc)
			wc.Data = nil
			if err == nil {
				req.Absorb(wc)
			}
			wc.Release()
			if err != nil {
				return err
			}
		}
	}
	ino.Size = size
	return f.logAppend(e, req, logEntry{Op: logTruncate, Path: ino.Path, Size: size})
}

func (f *LabFS) fsync(e *core.Exec, req *core.Request) error {
	// fsync guarantees the named file is durable — if a crash replay
	// dropped it (its create never reached the log) or dropped writes to it
	// (their extents or size never did), the caller must learn that now
	// rather than receive a hollow success. Close is exempt: closing an
	// unlinked file is legal.
	if req.Op == core.OpFsync && req.Path != "" {
		if _, ok := f.table.Get(req.Path); !ok {
			req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
			return req.Err
		}
		f.replayMu.Lock()
		lost := f.lost[req.Path]
		delete(f.lost, req.Path)
		f.replayMu.Unlock()
		if lost {
			req.Err = fmt.Errorf("%w: %q", ErrLostWrite, req.Path)
			return req.Err
		}
	}
	if err := f.log.Flush(e, req); err != nil {
		return err
	}
	child := req.Child(core.OpBlockFlush)
	err := e.SpawnNext(req, child)
	child.Release()
	return err
}

// --- data ops -----------------------------------------------------------------

func (f *LabFS) write(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		if req.Flags&core.FlagCreate == 0 {
			req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
			return req.Err
		}
		if err := f.create(e, req, false); err != nil {
			return err
		}
		ino, _ = f.table.Get(req.Path)
	}
	if ino.IsDir {
		req.Err = fmt.Errorf("%w: %q", ErrIsDir, req.Path)
		return req.Err
	}
	off := req.Offset
	if req.Op == core.OpAppend || req.Flags&core.FlagAppend != 0 {
		off = ino.Size
	}
	data := req.Data
	bs := int64(f.blockSize)

	// Issue the per-block children concurrently in virtual time: each child
	// starts from the parent's current clock (the device's parallelism and
	// queue model provide the real overlap limits), then the parent absorbs
	// the slowest completion.
	base := req.Clock
	written := 0
	for written < len(data) {
		idx := (off + int64(written)) / bs
		inBlock := int((off + int64(written)) % bs)
		n := f.blockSize - inBlock
		if n > len(data)-written {
			n = len(data) - written
		}
		phys, have := ino.Blocks[idx]
		if !have {
			var err error
			phys, err = f.alloc.Alloc(e.WorkerID)
			if err != nil {
				req.Err = err
				return err
			}
			ino.Blocks[idx] = phys
			if err := f.logAppend(e, req, logEntry{Op: logExtent, Path: ino.Path, BlockIdx: idx, Phys: phys}); err != nil {
				return err
			}
			base = req.Clock // log append advanced the parent
		}
		child := req.Child(core.OpBlockWrite)
		child.Clock = base
		child.Offset = phys * bs
		var scratch []byte // arena block to release after the write
		if inBlock == 0 && n == f.blockSize {
			// Full-block write: the payload view flows down unstaged.
			child.Size = f.blockSize
			child.Data = data[written : written+n]
			if req.Buf.Valid() && written+n <= req.Buf.Len() {
				child.Buf = req.Buf.Slice(written, written+n)
			}
		} else {
			// Partial block: read-modify-write through an arena scratch block.
			scratch = core.AcquireBuf(f.blockSize)
			if have {
				rc := req.Child(core.OpBlockRead)
				rc.Clock = base
				rc.Offset = phys * bs
				rc.Size = f.blockSize
				rc.Data = scratch
				err := e.Next(rc)
				rc.Data = nil
				if err != nil {
					rc.Release()
					child.Release()
					core.ReleaseBuf(scratch)
					return err
				}
				child.Clock = rc.Clock
				req.Absorb(rc)
				rc.Release()
			} else {
				// Fresh block: the unwritten tail must read as zeros, and
				// arena buffers come back dirty.
				for i := range scratch {
					scratch[i] = 0
				}
			}
			copyRMWStage.Add(copy(scratch[inBlock:], data[written:written+n]))
			child.Size = f.blockSize
			child.Data = scratch
		}
		err := e.Next(child)
		child.Data = nil
		child.Buf = core.BufHandle{}
		core.ReleaseBuf(scratch)
		if err == nil {
			req.Absorb(child)
		}
		child.Release()
		if err != nil {
			return err
		}
		written += n
	}
	if end := off + int64(len(data)); end > ino.Size {
		ino.Size = end
		if err := f.logAppend(e, req, logEntry{Op: logSetSize, Path: ino.Path, Size: end}); err != nil {
			return err
		}
	}
	ino.LastWriter = req.Cred.UID
	req.Result = int64(len(data))
	return nil
}

func (f *LabFS) read(e *core.Exec, req *core.Request) error {
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	if ino.IsDir {
		req.Err = fmt.Errorf("%w: %q", ErrIsDir, req.Path)
		return req.Err
	}
	if req.Data == nil {
		// Stack-owned arena result: block reads land in it directly and
		// it transfers to the client at completion (TakeValue).
		req.Data = req.CompleteValue(req.Size)
	}
	data := req.Data
	// dstH is the handle behind data, used to cut per-block views for
	// downstream retention: the request's own result handle (stack-owned,
	// caches may retain) or the client's registered buffer (borrowed).
	dstH := req.ValueH
	if !dstH.Valid() {
		dstH = req.Buf
	}
	if int64(len(data)) > 0 && req.Offset >= ino.Size {
		req.Result = 0
		return nil
	}
	want := int64(len(data))
	if req.Offset+want > ino.Size {
		want = ino.Size - req.Offset
	}
	bs := int64(f.blockSize)
	base := req.Clock
	read := int64(0)
	var blockBuf []byte // bounce scratch, lazily acquired for partial blocks
	for read < want {
		idx := (req.Offset + read) / bs
		inBlock := int((req.Offset + read) % bs)
		n := int64(f.blockSize - inBlock)
		if n > want-read {
			n = want - read
		}
		phys, have := ino.Blocks[idx]
		if !have {
			// Hole: zero fill.
			for i := read; i < read+n; i++ {
				data[i] = 0
			}
			read += n
			continue
		}
		child := req.Child(core.OpBlockRead)
		child.Clock = base
		child.Offset = phys * bs
		child.Size = f.blockSize
		direct := inBlock == 0 && n == int64(f.blockSize)
		if direct {
			// Block-aligned span: read straight into the destination.
			child.Data = data[read : read+n]
			if dstH.Valid() && read+n <= int64(dstH.Len()) {
				child.Buf = dstH.Slice(int(read), int(read+n))
			}
		} else {
			if blockBuf == nil {
				blockBuf = core.AcquireBuf(f.blockSize)
			}
			child.Data = blockBuf
		}
		err := e.Next(child)
		child.Data = nil
		child.Buf = core.BufHandle{}
		if err == nil {
			req.Absorb(child)
		}
		child.Release()
		if err != nil {
			if blockBuf != nil {
				core.ReleaseBuf(blockBuf)
			}
			return err
		}
		if !direct {
			copyReadBounce.Add(int(n))
			copy(data[read:read+n], blockBuf[inBlock:inBlock+int(n)])
		}
		read += n
	}
	if blockBuf != nil {
		core.ReleaseBuf(blockBuf)
	}
	req.Result = read
	return nil
}

// scanExec is the grep-offload path: it runs a registered pushdown
// program over a file's lines without moving the file to the caller.
// Blocks are read through the stack below with no destination buffer (a
// warm cache hands back retained in-place views), lines are split against
// those views, and only matching lines (or a scalar aggregate) are
// emitted. A line spanning a block boundary carries its partial prefix
// forward — the only copy the streaming path makes.
func (f *LabFS) scanExec(e *core.Exec, req *core.Request) error {
	if req.Prog == "" {
		req.Err = fmt.Errorf("labfs: %w: scan needs a program ref", core.ErrNotSupported)
		return req.Err
	}
	prog, ok := pushdown.Default.Lookup(req.Prog)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", pushdown.ErrUnknownProgram, req.Prog)
		return nil
	}
	f.chargeMeta(e, req, req.Path)
	ino, ok := f.table.Get(req.Path)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNotFound, req.Path)
		return req.Err
	}
	if ino.IsDir {
		req.Err = fmt.Errorf("%w: %q", ErrIsDir, req.Path)
		return req.Err
	}
	ev := pushdown.NewEval(prog, pushdown.EmitRaw, req.ProgMaxBytes, req.ProgMaxSteps)
	bs := int64(f.blockSize)
	base := req.Clock
	var carry []byte
	var trip error
	for off := int64(0); off < ino.Size && trip == nil; off += bs {
		n := bs
		if off+n > ino.Size {
			n = ino.Size - off
		}
		var view []byte
		var h core.BufHandle
		if phys, have := ino.Blocks[off/bs]; have {
			child := req.Child(core.OpBlockRead)
			child.Clock = base
			child.Offset = phys * bs
			child.Size = f.blockSize
			err := e.Next(child)
			req.Absorb(child)
			if err == nil {
				err = child.Err
			}
			if err != nil {
				child.Release()
				req.Err = err
				return err
			}
			view = child.Value
			if view == nil {
				view = child.Data
			}
			view = view[:n]
			// The view outlives the child: keep its handle, and clear
			// Value so that Release recycles nothing the view reads.
			h = child.TakeValue()
			child.Value = nil
			child.Release()
		} else {
			view = make([]byte, n) // hole: zeros
		}
		start := 0
		for start < len(view) {
			nl := bytes.IndexByte(view[start:], '\n')
			if nl < 0 {
				break
			}
			line := view[start : start+nl]
			var err error
			if len(carry) > 0 {
				_, err = ev.Record("", carry, line)
				carry = carry[:0]
			} else {
				_, err = ev.Record("", line)
			}
			if err != nil {
				trip = err
				break
			}
			start += nl + 1
		}
		if trip == nil && start < len(view) {
			pushdown.CopyCarry.Add(len(view) - start)
			carry = append(carry, view[start:]...)
		}
		if h.Valid() {
			h.Release()
		}
	}
	if trip == nil && len(carry) > 0 {
		_, trip = ev.Record("", carry)
	}
	req.Charge("pushdown", e.Model.Pushdown(int(ev.BytesScanned())))
	f.pdStats.Execs.Inc()
	f.pdStats.Records.Add(ev.Records())
	f.pdStats.Bytes.Add(ev.BytesScanned())
	f.pdStats.Matches.Add(ev.Matched())
	f.pdStats.EmitBytes.Add(ev.EmitBytes())
	if trip != nil {
		f.pdStats.BudgetTrips.Inc()
		req.Err = trip
		return nil
	}
	ev.Finish(req)
	return nil
}

// --- lifecycle ----------------------------------------------------------------

// StateUpdate adopts the previous instance's inode table, allocator and log
// (live upgrade without losing the filesystem).
func (f *LabFS) StateUpdate(prev core.Module) error {
	old, ok := prev.(*LabFS)
	if !ok {
		return nil
	}
	f.table = old.table
	f.alloc = old.alloc
	f.log = old.log
	f.seq = old.seq
	f.blockSize = old.blockSize
	f.dataFirst = old.dataFirst
	f.dataBlocks = old.dataBlocks
	f.needReplay = false
	old.replayMu.Lock()
	f.lost = old.lost
	old.replayMu.Unlock()
	return nil
}

// StateRepair schedules a log replay: after a Runtime crash the in-memory
// inode table may be stale, so it is rebuilt from the on-device log on the
// next request.
func (f *LabFS) StateRepair() error {
	f.replayMu.Lock()
	f.needReplay = true
	f.replayMu.Unlock()
	return nil
}

// EstProcessingTime classifies LabFS requests as latency-sensitive
// (metadata + per-block bookkeeping).
func (f *LabFS) EstProcessingTime(op core.Op, size int) vtime.Duration {
	m := f.Env.Model
	if op.IsMetadata() {
		return m.FSMetadata + m.LabFSCreate
	}
	blocks := vtime.Duration(size/f.blockSize + 1)
	return m.FSMetadata + blocks*m.LabFSShardLockHold
}

// Provenance returns a file's provenance record (creator UID, creating log
// sequence, last writer UID) — LabFS's provenance tracking (paper §III-E).
func (f *LabFS) Provenance(path string) (createdBy int, createdSeq uint64, lastWriter int, ok bool) {
	ino, ok := f.table.Get(path)
	if !ok {
		return 0, 0, 0, false
	}
	return ino.CreatedBy, ino.CreatedSeq, ino.LastWriter, true
}
