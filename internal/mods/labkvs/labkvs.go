// Package labkvs implements LabKVS, the paper's example key-value store
// LabMod (§III-E). LabKVS is designed like LabFS — LabFS's block allocator,
// a metadata log, an in-memory sharded index — but exposes a put/get/remove
// API that creates keys and stores data in a *single* operation, as opposed
// to the open-modify-close sequence POSIX requires. That single-hop data
// path is the source of the Fig. 9(b) gains.
//
// The allocator has one pool, not one per worker: an overwrite then takes
// back the blocks the key's previous value just freed, whichever worker
// ran either put, so a hot key keeps its blocks (and their cache pages)
// instead of spreading over one block per worker pool. It grants its
// lowest blocks first: a log record stores block numbers as varints, and
// on a large device the top of the region takes a byte more per block.
package labkvs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"labstor/internal/blockalloc"
	"labstor/internal/codec"
	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/pushdown"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
	"labstor/internal/wal"
)

// Type is the registered module type name.
const Type = "labstor.labkvs"

// Remaining data-path copy sites (telemetry copies/op audit): full-block
// puts/gets move zero bytes in this module; only block tails and the
// metadata log still stage.
var (
	copyStageTail  = telemetry.CopySite("labkvs.put_stage_tail")
	copyGatherTail = telemetry.CopySite("labkvs.get_gather_tail")
	copyLogStage   = telemetry.CopySite("labkvs.log_stage")
)

func init() {
	core.RegisterType(Type, func() core.Module { return &LabKVS{} })
}

// ErrNoKey is returned for lookups of absent keys.
var ErrNoKey = errors.New("labkvs: no such key")

// record is one log record: a key's blocks, or its tombstone.
type record struct {
	Key    string
	Size   int
	Blocks []int64
	Owner  int
	Dead   bool // tombstone
}

// entry is one live key in the index, held by value in its shard's map. A
// one-block value keeps its block inline; only a value of another block
// count holds a slice, which is never written once the entry is installed.
type entry struct {
	// key is the index's own copy of the key, the string the map stores: a
	// put installs the entry under it, because assigning to a map entry also
	// replaces its stored key with the one the assignment uses.
	key    string
	size   int
	owner  int
	inline bool     // the value is one block, block[0]
	block  [1]int64 // the block of a one-block value
	blocks []int64  // the blocks of a value of any other count (a replayed record may have none)
}

// blockList returns e's blocks; for a one-block entry, a view of e itself.
func (e *entry) blockList() []int64 {
	if e.inline {
		return e.block[:]
	}
	return e.blocks
}

// logRecord is e as a put record. It shares e's blocks.
func (e *entry) logRecord() record {
	return record{Key: e.key, Size: e.size, Blocks: e.blockList(), Owner: e.owner}
}

type kvShard struct {
	mu    sync.RWMutex
	vlock vtime.Lock
	recs  map[string]entry
}

// LabKVS is the key-value store module instance.
type LabKVS struct {
	core.Base

	dataFirst int64 // data region: blocks [dataFirst, dataEnd); the log takes [0, dataFirst)
	dataEnd   int64

	shards []kvShard
	alloc  *blockalloc.Allocator
	log    *wal.Log

	needReplay bool
	replayMu   sync.Mutex

	puts atomic.Int64
	gets atomic.Int64
	dels atomic.Int64

	// opCount maps each handled op to its runtime metrics counter
	// ("labkvs.<uuid>.<op>"); built in Configure, read-only after.
	opCount map[core.Op]*telemetry.Counter
	// pdStats are the shared pushdown.* counters (scan-with-predicate).
	pdStats pushdown.Stats
}

// Info describes the module.
func (k *LabKVS) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIKV, Produces: core.APIBlock}
}

// Configure reads geometry: device (required), log_mb (default 8), shards
// (default 64), replay ("true" to rebuild from the device log). Values are
// stored in the device's blocks (device.BlockSize).
func (k *LabKVS) Configure(cfg core.Config, env *core.Env) error {
	if err := k.Base.Configure(cfg, env); err != nil {
		return err
	}
	devName := cfg.Attr("device", "")
	if devName == "" {
		return fmt.Errorf("labkvs: vertex %q needs a 'device' attribute", cfg.UUID)
	}
	dev, err := env.Device(devName)
	if err != nil {
		return err
	}
	logMB, err := cfg.Int("log_mb", 8)
	if err != nil {
		return err
	}
	if logMB < 1 {
		logMB = 8
	}
	logBlocks := int64(logMB<<20) / device.BlockSize
	total := dev.Capacity() / device.BlockSize
	if total <= logBlocks {
		return fmt.Errorf("labkvs: device %q too small", devName)
	}
	k.dataFirst = logBlocks
	k.dataEnd = total
	nShards, err := cfg.Int("shards", 64)
	if err != nil {
		return err
	}
	if nShards < 1 {
		nShards = 1
	}
	k.shards = make([]kvShard, nShards)
	for i := range k.shards {
		k.shards[i].recs = make(map[string]entry)
	}
	k.alloc = blockalloc.New(1, k.dataFirst, k.dataEnd-k.dataFirst, nil, true)
	k.log = wal.New(device.BlockSize, logBlocks, copyLogStage)
	k.needReplay = cfg.Attr("replay", "false") == "true"

	if env.Metrics != nil {
		name := cfg.UUID
		if name == "" {
			name = "labkvs"
		}
		k.opCount = make(map[core.Op]*telemetry.Counter)
		for _, op := range []core.Op{
			core.OpPut, core.OpGet, core.OpDel, core.OpHas,
			core.OpReaddir, core.OpFsync, core.OpScan,
		} {
			k.opCount[op] = env.Metrics.Counter("labkvs." + name + "." + op.String())
		}
	}
	k.pdStats = pushdown.Counters(env.Metrics)
	return nil
}

// shard places key by 32-bit FNV-1a, computed inline over the string: the
// same function as hash/fnv's New32a (placement and log replay depend on
// it) without the hasher and the []byte(key) per call.
func (k *LabKVS) shard(key string) *kvShard {
	return &k.shards[int(fnv32a(key))%len(k.shards)]
}

func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Process dispatches a key-value request.
func (k *LabKVS) Process(e *core.Exec, req *core.Request) error {
	if err := k.maybeReplay(e, req); err != nil {
		return err
	}
	if c := k.opCount[req.Op]; c != nil {
		c.Inc()
	}
	switch req.Op {
	case core.OpPut:
		return k.put(e, req)
	case core.OpGet:
		return k.get(e, req)
	case core.OpDel:
		return k.del(e, req)
	case core.OpHas:
		return k.has(req)
	case core.OpReaddir: // scan: list keys with prefix req.Path
		return k.scan(req)
	case core.OpScan: // scan-with-predicate: run a pushdown program in place
		return k.scanExec(e, req)
	case core.OpFsync:
		return k.log.Flush(e, req)
	default:
		return fmt.Errorf("labkvs: %w: %s", core.ErrNotSupported, req.Op)
	}
}

// chargeMeta charges the metadata cost of an op on the shard its key hashes
// to; callers hash once and use sh for the index access too.
func chargeMeta(e *core.Exec, req *core.Request, sh *kvShard) {
	m := e.Model
	hold := m.LabFSShardLockHold
	release := sh.vlock.Acquire(req.Clock, hold)
	req.AdvanceTo(release.Add(-hold))
	req.Charge("kv_meta", m.FSMetadata+hold)
}

func (k *LabKVS) put(e *core.Exec, req *core.Request) error {
	sh := k.shard(req.Key)
	chargeMeta(e, req, sh)
	data := req.Data
	nBlocks := (len(data) + device.BlockSize - 1) / device.BlockSize
	if nBlocks == 0 {
		nBlocks = 1
	}
	// A one-block value's block is inline; others get a slice of their own.
	ent := entry{size: len(data), owner: req.Cred.UID, inline: nBlocks == 1}
	if !ent.inline {
		ent.blocks = make([]int64, nBlocks)
	}
	if err := k.alloc.Alloc(e.WorkerID, ent.blockList()); err != nil {
		req.Err = err
		return err
	}
	base := req.Clock
	for i, phys := range ent.blockList() {
		child := req.Child(core.OpBlockWrite)
		child.Clock = base
		child.Offset = phys * device.BlockSize
		lo := i * device.BlockSize
		hi := lo + device.BlockSize
		child.Size = device.BlockSize
		var staged core.BufHandle
		if hi <= len(data) {
			// Full block: pass the payload slice straight down — the
			// borrowed view goes device-ward with zero staging copies.
			child.Data = data[lo:hi]
			if req.Buf.Valid() {
				child.Buf = req.Buf.Slice(lo, hi)
			}
		} else {
			// Tail block: stage into a zero-padded scratch block (the
			// device writes whole blocks; arena buffers come back dirty).
			hi = len(data)
			staged = core.AcquireHandle(device.BlockSize)
			block := staged.Bytes()
			n := copy(block, data[lo:hi])
			copyStageTail.Add(n)
			clear(block[n:])
			child.Data = block
		}
		_, err := e.SpawnNext(req, child)
		staged.Release()
		if err != nil {
			k.alloc.Free(e.WorkerID, ent.blockList()...)
			return err
		}
	}

	// req.Key may be a view of memory the caller reuses (a server's key
	// slab): an overwrite keeps the key the index holds, and a new key is
	// cloned, so the index never pins the caller's memory.
	sh.mu.Lock()
	old, had := sh.recs[req.Key]
	if had {
		ent.key = old.key
	} else {
		ent.key = strings.Clone(req.Key)
	}
	sh.recs[ent.key] = ent
	sh.mu.Unlock()
	if had {
		k.alloc.Free(e.WorkerID, old.blockList()...)
	}
	rec := ent.logRecord()
	if err := k.logAppend(e, req, &rec); err != nil {
		return err
	}
	k.puts.Add(1)
	req.Result = int64(len(data))
	return nil
}

func (k *LabKVS) get(e *core.Exec, req *core.Request) error {
	sh := k.shard(req.Key)
	chargeMeta(e, req, sh)
	sh.mu.RLock()
	ent, ok := sh.recs[req.Key]
	sh.mu.RUnlock()
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNoKey, req.Key)
		return req.Err
	}
	if ent.inline {
		if err := k.getBlock(e, req, ent.block[0], ent.size); err != nil {
			return err
		}
		req.Result = int64(ent.size)
		k.gets.Add(1)
		return nil
	}
	// Arena-backed result handle: block reads land directly in the result
	// buffer (no per-block bounce), and downstream caches may retain the
	// stack-owned views instead of copying. Recycled when the last holder
	// releases.
	out := req.CompleteValue(ent.size)
	base := req.Clock
	var scratch core.BufHandle
	for i, phys := range ent.blocks {
		child := req.Child(core.OpBlockRead)
		child.Clock = base
		child.Offset = phys * device.BlockSize
		child.Size = device.BlockSize
		lo := i * device.BlockSize
		hi := lo + device.BlockSize
		switch {
		case hi <= ent.size:
			// Full block: read straight into the result view.
			child.Data = out[lo:hi]
			child.Buf = req.ValueH.Slice(lo, hi)
		case lo+device.BlockSize <= cap(out):
			// Tail block, but the result buffer's class capacity has room
			// for the full device block — still a direct read.
			child.Data = out[lo : lo+device.BlockSize]
		default:
			// Tail block with no slack (heap-fallback sizes): bounce
			// through scratch and copy the live prefix.
			if !scratch.Valid() {
				scratch = core.AcquireHandle(device.BlockSize)
			}
			child.Data = scratch.Bytes()
		}
		if _, err := e.SpawnNext(req, child); err != nil {
			scratch.Release()
			return err
		}
		if scratch.Valid() && hi > ent.size {
			hi = ent.size
			copyGatherTail.Add(hi - lo)
			copy(out[lo:hi], scratch.Bytes()[:hi-lo])
		}
	}
	scratch.Release()
	req.Result = int64(ent.size)
	k.gets.Add(1)
	return nil
}

// getBlock reads a one-block record with no destination and adopts the
// block read's result handle, narrowed to the record, as the get's value:
// a warm LRU answers with a retained view of its page and a miss with the
// driver's fill, which the cache keeps too. Either way the get copies
// nothing, and the value may share its bytes with the cache, so holders
// treat it as read-only (DESIGN.md §13).
func (k *LabKVS) getBlock(e *core.Exec, req *core.Request, block int64, size int) error {
	child := req.Child(core.OpBlockRead)
	child.Offset = block * device.BlockSize
	child.Size = device.BlockSize
	h, err := e.SpawnNext(req, child)
	if err != nil {
		return err
	}
	req.ValueH = h.Narrow(0, size)
	req.Value = req.ValueH.Bytes()
	return nil
}

func (k *LabKVS) del(e *core.Exec, req *core.Request) error {
	sh := k.shard(req.Key)
	chargeMeta(e, req, sh)
	sh.mu.Lock()
	ent, ok := sh.recs[req.Key]
	if ok {
		delete(sh.recs, req.Key)
	}
	sh.mu.Unlock()
	if !ok {
		req.Err = fmt.Errorf("%w: %q", ErrNoKey, req.Key)
		return req.Err
	}
	k.alloc.Free(e.WorkerID, ent.blockList()...)
	k.dels.Add(1)
	return k.logAppend(e, req, &record{Key: req.Key, Dead: true})
}

func (k *LabKVS) has(req *core.Request) error {
	sh := k.shard(req.Key)
	sh.mu.RLock()
	_, ok := sh.recs[req.Key]
	sh.mu.RUnlock()
	if ok {
		req.Result = 1
	}
	return nil
}

// records returns copies, taken under the shard locks, of the live entries
// whose key starts with prefix.
func (k *LabKVS) records(prefix string) []entry {
	var ents []entry
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.RLock()
		for key, ent := range sh.recs {
			if strings.HasPrefix(key, prefix) {
				ents = append(ents, ent)
			}
		}
		sh.mu.RUnlock()
	}
	return ents
}

func (k *LabKVS) scan(req *core.Request) error {
	var keys []string
	for _, ent := range k.records(req.Path) {
		keys = append(keys, ent.key)
	}
	sort.Strings(keys)
	req.Names = keys
	req.Result = int64(len(keys))
	return nil
}

// scanExec runs a registered pushdown program over every record whose key
// matches the request prefix (Key, falling back to Path) — the
// scan-with-predicate path. Record blocks are read through the stack
// below with no destination buffer, so a warm LRU hands back retained
// in-place views (0 payload copies) and a cold read lands one DMA fill;
// the program evaluates against those views and only matches (or a
// scalar aggregate) travel up. Without a program ref this degrades to the
// key-listing scan.
func (k *LabKVS) scanExec(e *core.Exec, req *core.Request) error {
	if req.Prog == "" {
		if req.Path == "" {
			req.Path = req.Key
		}
		return k.scan(req)
	}
	prog, ok := pushdown.Default.Lookup(req.Prog)
	if !ok {
		req.Err = fmt.Errorf("%w: %q", pushdown.ErrUnknownProgram, req.Prog)
		return nil
	}
	prefix := req.Key
	if prefix == "" {
		prefix = req.Path
	}
	chargeMeta(e, req, k.shard(prefix))
	// Block reads happen outside the shard locks: freed blocks of replaced
	// records are only rewritten by later puts, which this scan is
	// unordered against anyway.
	ents := k.records(prefix)
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })

	ev := pushdown.NewEval(prog, pushdown.EmitKV, req.ProgMaxBytes, req.ProgMaxSteps)
	chunks := make([][]byte, 0, 4)
	handles := make([]core.BufHandle, 0, 4)
	for _, ent := range ents {
		chunks = chunks[:0]
		handles = handles[:0]
		for i, phys := range ent.blockList() {
			child := req.Child(core.OpBlockRead)
			child.Offset = phys * device.BlockSize
			child.Size = device.BlockSize
			h, err := e.SpawnNext(req, child)
			if err != nil {
				for _, h := range handles {
					h.Release()
				}
				req.Err = err
				return err
			}
			lo := i * device.BlockSize
			hi := lo + device.BlockSize
			if hi > ent.size {
				hi = ent.size
			}
			chunks = append(chunks, h.Bytes()[:hi-lo])
			// The chunk outlives the child: keep its handle.
			handles = append(handles, h)
		}
		_, err := ev.Record(ent.key, chunks...)
		for _, h := range handles {
			h.Release()
		}
		if err != nil {
			k.pdStats.BudgetTrips.Inc()
			k.finishScan(e, req, ev)
			req.Err = err
			return nil
		}
	}
	k.finishScan(e, req, ev)
	ev.Finish(req)
	return nil
}

// finishScan charges the evaluated bytes and publishes pushdown.* counters.
func (k *LabKVS) finishScan(e *core.Exec, req *core.Request, ev *pushdown.Eval) {
	req.Charge("pushdown", e.Model.Pushdown(int(ev.BytesScanned())))
	k.pdStats.Execs.Inc()
	k.pdStats.Records.Add(ev.Records())
	k.pdStats.Bytes.Add(ev.BytesScanned())
	k.pdStats.Matches.Add(ev.Matched())
	k.pdStats.EmitBytes.Add(ev.EmitBytes())
}

// --- log ----------------------------------------------------------------------

// logAppend appends rec to the log. The log checkpoints from k.snapshot
// when its region is nearly full.
func (k *LabKVS) logAppend(e *core.Exec, req *core.Request, rec *record) error {
	var scratch [64]byte
	return k.log.Append(e, req, appendRecord(scratch[:0], rec), k.snapshot)
}

// snapshot emits every live key as a put record: a checkpoint's image of
// the index.
func (k *LabKVS) snapshot(emit func(rec []byte) error) error {
	var buf []byte
	for _, ent := range k.records("") {
		rec := ent.logRecord()
		buf = appendRecord(buf[:0], &rec)
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord encodes rec's log payload onto dst as an internal/codec
// record: key (string), size, block count and blocks (uvarints), owner
// (varint), dead (uvarint 0 or 1).
func appendRecord(dst []byte, rec *record) []byte {
	dst = codec.AppendStr(dst, rec.Key)
	dst = codec.AppendUvarint(dst, uint64(rec.Size))
	dst = codec.AppendUvarint(dst, uint64(len(rec.Blocks)))
	for _, b := range rec.Blocks {
		dst = codec.AppendUvarint(dst, uint64(b))
	}
	dst = codec.AppendVarint(dst, int64(rec.Owner))
	if rec.Dead {
		return append(dst, 1)
	}
	return append(dst, 0)
}

var errBadRecord = errors.New("labkvs: malformed log record")

// decodeRecord decodes one payload written by appendRecord.
func decodeRecord(b []byte) (*record, error) {
	d := codec.NewDecoder(b)
	rec := &record{Key: d.Str(""), Size: int(d.Uvarint())}
	// A corrupt block count cannot run past the payload's length.
	for n := d.Uvarint(); n > 0 && len(rec.Blocks) < len(b); n-- {
		rec.Blocks = append(rec.Blocks, int64(d.Uvarint()))
	}
	rec.Owner = int(d.Varint())
	rec.Dead = d.Uvarint() != 0
	if !d.Done() {
		return nil, errBadRecord
	}
	return rec, nil
}

// replayEntry is the index entry of a replayed put record, which owns its
// key and blocks.
func replayEntry(rec *record) entry {
	ent := entry{key: rec.Key, size: rec.Size, owner: rec.Owner, blocks: rec.Blocks}
	if ent.inline = len(rec.Blocks) == 1; ent.inline {
		ent.block[0], ent.blocks = rec.Blocks[0], nil
	}
	return ent
}

// maybeReplay rebuilds the index and the allocator from the device log.
// The log is the whole truth: the index is rebuilt from empty, so a put
// that never reached the log is lost rather than left pointing at blocks
// the rebuilt allocator hands out again.
func (k *LabKVS) maybeReplay(e *core.Exec, req *core.Request) error {
	k.replayMu.Lock()
	defer k.replayMu.Unlock()
	if !k.needReplay {
		return nil
	}
	k.needReplay = false
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.Lock()
		clear(sh.recs)
		sh.mu.Unlock()
	}
	err := k.log.Replay(e, req, func(b []byte) error {
		rec, err := decodeRecord(b)
		if err != nil {
			return err
		}
		sh := k.shard(rec.Key)
		sh.mu.Lock()
		if rec.Dead {
			delete(sh.recs, rec.Key)
		} else {
			sh.recs[rec.Key] = replayEntry(rec)
		}
		sh.mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	used := make(map[int64]bool)
	for _, ent := range k.records("") {
		for _, b := range ent.blockList() {
			used[b] = true
		}
	}
	k.alloc = blockalloc.New(1, k.dataFirst, k.dataEnd-k.dataFirst, used, true)
	return nil
}

// --- lifecycle ----------------------------------------------------------------

// Keys returns the number of live keys.
func (k *LabKVS) Keys() int {
	n := 0
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.RLock()
		n += len(sh.recs)
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns op counters.
func (k *LabKVS) Stats() (puts, gets, dels int64) {
	return k.puts.Load(), k.gets.Load(), k.dels.Load()
}

// StateUpdate adopts the previous instance's index, allocator and log.
func (k *LabKVS) StateUpdate(prev core.Module) error {
	old, ok := prev.(*LabKVS)
	if !ok {
		return nil
	}
	k.shards = old.shards
	k.alloc = old.alloc
	k.log = old.log
	k.dataFirst = old.dataFirst
	k.dataEnd = old.dataEnd
	k.needReplay = false
	return nil
}

// StateRepair schedules an index rebuild from the device log.
func (k *LabKVS) StateRepair() error {
	k.replayMu.Lock()
	k.needReplay = true
	k.replayMu.Unlock()
	return nil
}
