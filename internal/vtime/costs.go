package vtime

// CostModel holds the calibrated software-path cost constants used by the
// simulated kernel stack, the LabStor runtime and the LabMods. All values
// are virtual nanoseconds (or ns/byte for copy costs).
//
// Calibration targets (see DESIGN.md §5 and EXPERIMENTS.md):
//   - the 4KB NVMe write anatomy of Fig. 4(a): device ≈ 66% of request time,
//     LRU page cache ≈ 17%, IPC ≈ 8.4%, NoOp scheduler ≈ 5%, FS metadata ≈ 3%,
//     permissions ≈ 3%, driver ≈ 1%;
//   - the storage-API ladder of Fig. 6: SPDK > KernelDriver (by ~12%) >
//     io_uring (KernelDriver ≥15% over the best kernel API at 4KB) > libaio >
//     POSIX > POSIX AIO (60–70% overhead on NVMe/PMEM), converging to ~6%
//     spread at 128KB.
type CostModel struct {
	// --- CPU / kernel-crossing primitives -----------------------------------

	// ContextSwitch is a full context switch between threads/processes
	// (schedule out + in, cache/TLB damage included).
	ContextSwitch Duration
	// ModeSwitch is a syscall entry+exit (user->kernel->user) without a
	// thread switch.
	ModeSwitch Duration
	// InterruptWakeup is the cost of an IRQ-driven completion: softirq
	// processing plus waking the sleeping issuer.
	InterruptWakeup Duration
	// ThreadWake is waking a sleeping thread on the same core (futex-style).
	ThreadWake Duration
	// CopyPerByte is the per-byte cost of copying between buffers
	// (copy_to_user/copy_from_user, page-cache fills, queue payloads).
	CopyPerByte float64

	// --- Kernel I/O stack stages -------------------------------------------

	// VFSOverhead is the VFS layer per-op cost (path resolution cache hit,
	// fd lookup, permission hook).
	VFSOverhead Duration
	// BlockLayerAlloc is the kernel block layer per-request cost (bio/request
	// allocation, plug/unplug, tag allocation).
	BlockLayerAlloc Duration
	// KernelSchedOverhead is the in-kernel I/O scheduler cost per request.
	KernelSchedOverhead Duration
	// AIOThreadDispatch is the POSIX AIO userspace thread-pool dispatch cost
	// (enqueue to pool + wake pool thread + reap), on top of the sync path.
	AIOThreadDispatch Duration
	// LibaioSubmit is the io_submit/io_getevents amortized per-request cost.
	LibaioSubmit Duration
	// IOUringSubmit is the io_uring SQ/CQ per-request cost with ring doorbell.
	IOUringSubmit Duration

	// --- LabStor runtime primitives ------------------------------------------

	// IPCRoundTrip is a shared-memory queue-pair round trip between client and
	// worker on different cores: the request and completion cachelines must be
	// transferred across cores (or from DRAM).
	IPCRoundTrip Duration
	// QueueOp is a single enqueue or dequeue on a shared-memory ring.
	QueueOp Duration
	// ModLookup is a Module Registry / Namespace lookup.
	ModLookup Duration

	// --- LabMod stage costs ---------------------------------------------------

	// PermCheck is the permissions LabMod per-request cost.
	PermCheck Duration
	// LRUCacheOp is the page-cache LabMod per-request overhead (hash lookup,
	// page allocation, LRU list maintenance) excluding the data copy.
	LRUCacheOp Duration
	// NoOpSched is the NoOp scheduler LabMod cost (keys a request to a
	// hardware queue).
	NoOpSched Duration
	// BlkSwitchSched is the blk-switch scheduler cost (load lookup + steering).
	BlkSwitchSched Duration
	// FSMetadata is LabFS per-request metadata management (block allocation,
	// inode hashmap update, log append).
	FSMetadata Duration
	// KernelDriverSubmit is the Kernel Driver LabMod submit cost
	// (request structure allocation + hctx doorbell via the KO manager).
	KernelDriverSubmit Duration
	// SPDKSubmit is the SPDK LabMod submit cost (userspace NVMe command build,
	// no kernel structures).
	SPDKSubmit Duration
	// DAXAccessSetup is the DAX LabMod fixed per-op cost before the memcpy.
	DAXAccessSetup Duration
	// CompressPerByte is the compression LabMod per-byte cost.
	CompressPerByte float64
	// PushdownPerByte is the per-byte cost of evaluating a pushdown
	// program over in-place data (predicate compare + field decode; no
	// copy — emission pays CopyPerByte separately).
	PushdownPerByte float64

	// --- Kernel filesystem (ext4/XFS/F2FS style) stages -----------------------

	// KFSJournalCommit is the journal transaction cost per metadata op.
	KFSJournalCommit Duration
	// KFSDirLockHold is the directory-lock hold time per create/unlink —
	// the serialization quantum that destroys kernel-FS metadata scaling.
	KFSDirLockHold Duration
	// KFSInodeAlloc is inode+bitmap allocation cost.
	KFSInodeAlloc Duration

	// --- LabFS metadata stages -------------------------------------------------

	// LabFSCreate is the LabFS create-op CPU cost (sharded hashmap insert +
	// per-worker log append; no global lock).
	LabFSCreate Duration
	// LabFSShardLockHold is the per-shard serialization quantum of LabFS's
	// inode hashmap (small; many shards).
	LabFSShardLockHold Duration
}

// Default returns the calibrated cost model used by all experiments.
func Default() *CostModel {
	return &CostModel{
		ContextSwitch:   2000 * Nanosecond,
		ModeSwitch:      700 * Nanosecond,
		InterruptWakeup: 2000 * Nanosecond,
		ThreadWake:      1200 * Nanosecond,
		CopyPerByte:     0.05, // ≈20 GB/s memcpy

		VFSOverhead:         2000 * Nanosecond,
		BlockLayerAlloc:     5000 * Nanosecond,
		KernelSchedOverhead: 600 * Nanosecond,
		AIOThreadDispatch:   5000 * Nanosecond,
		LibaioSubmit:        1400 * Nanosecond,
		IOUringSubmit:       900 * Nanosecond,

		IPCRoundTrip: 2000 * Nanosecond,
		QueueOp:      150 * Nanosecond,
		ModLookup:    120 * Nanosecond,

		PermCheck:          750 * Nanosecond,
		LRUCacheOp:         3800 * Nanosecond,
		NoOpSched:          1200 * Nanosecond,
		BlkSwitchSched:     1500 * Nanosecond,
		FSMetadata:         750 * Nanosecond,
		KernelDriverSubmit: 2000 * Nanosecond,
		SPDKSubmit:         250 * Nanosecond,
		DAXAccessSetup:     150 * Nanosecond,
		CompressPerByte:    0.6, // ≈1.6 GB/s single-stream deflate
		PushdownPerByte:    0.2, // ≈5 GB/s predicate scan over cached data

		KFSJournalCommit: 9000 * Nanosecond,
		KFSDirLockHold:   6500 * Nanosecond,
		KFSInodeAlloc:    2500 * Nanosecond,

		LabFSCreate:        1500 * Nanosecond,
		LabFSShardLockHold: 600 * Nanosecond,
	}
}

// Copy returns the modeled time to copy n bytes.
func (c *CostModel) Copy(n int) Duration {
	if n <= 0 {
		return 0
	}
	return Duration(float64(n) * c.CopyPerByte)
}

// Compress returns the modeled time to compress n bytes.
func (c *CostModel) Compress(n int) Duration {
	if n <= 0 {
		return 0
	}
	return Duration(float64(n) * c.CompressPerByte)
}

// Pushdown returns the modeled time to evaluate a pushdown program over n
// bytes of in-place data.
func (c *CostModel) Pushdown(n int) Duration {
	if n <= 0 {
		return 0
	}
	return Duration(float64(n) * c.PushdownPerByte)
}
