package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"labstor/internal/core"
	"labstor/internal/ipc"
	"labstor/internal/mods/pushdown"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
)

// Config parameterizes a serving front end.
type Config struct {
	// Addr is the TCP listen address (host:0 binds an ephemeral port).
	Addr string
	// Batch caps how many decoded frames coalesce into one SubmitBatch
	// (0 = 32). The reader also flushes whenever the socket has no more
	// buffered bytes, so latency under light load is one frame.
	Batch int
	// MaxPayload bounds one frame's payload (0 = DefaultMaxPayload).
	MaxPayload int
	// Default is the admission policy for tenants without an explicit
	// entry (zero value = no rate limit, 256 inflight).
	Default TenantPolicy
	// Tenants are the explicit per-tenant QoS policies.
	Tenants []TenantPolicy
	// Pushdown is the program policy for Prog-carrying scan frames:
	// per-tenant allow-lists plus byte/step budget caps. nil rejects every
	// program (secure default — remote computation must be opted into).
	Pushdown *pushdown.Policy
}

// demandPoll is how often the server folds the orchestrator's per-queue
// demand estimates into the admission pressure signal. The estimates change
// at most once per rebalance epoch (10 ms in the shipped configs); folding
// every 50 ms costs one orchestrator lock per tick and still shrinks the
// inflight budgets within a fraction of a second of an overload. A
// constant, not an option: no caller needs another value.
const demandPoll = 50 * time.Millisecond

// Server is the TCP serving front end: it multiplexes many client
// connections onto the Runtime's queue-pair fast path. Each connection gets
// one runtime.Client (one queue pair, placed by the orchestrator like any
// local client) and two goroutines:
//
//	reader    — parses frame heads, lands payloads in arena buffers,
//	            runs admission, coalesces admitted requests into vectored
//	            SubmitBatch calls
//	completer — reaps each submitted batch with WaitAll and writes its
//	            responses itself: heads from a scratch, values from where
//	            the stack left them, at most two writevs per batch — what
//	            is done once the first request is, then the rest
//	            (connWriter)
//
// There is no writer goroutine. The reader's own frames (BUSY, pong, error
// responses) go out through the same connWriter under its lock.
//
// Backpressure is explicit end to end: admission rejections are BUSY
// frames, a full submission ring blocks the reader (TCP pushback), a peer
// that does not read blocks the completer in its write, and the completer
// channel bounds how many submitted-but-unwritten batches exist.
type Server struct {
	connSet
	rt   *runtime.Runtime
	cfg  Config
	adm  *Admission
	quit chan struct{}

	// batches recycles *submittedBatch between a connection's completer and
	// its reader, so the per-batch slices are allocated once.
	batches sync.Pool

	mAccepted  *telemetry.Counter
	mFramesIn  *telemetry.Counter
	mFramesOut *telemetry.Counter
	mBytesIn   *telemetry.Counter
	mBytesOut  *telemetry.Counter
	mBusy      *telemetry.Counter
	mReqErrs   *telemetry.Counter
	mProtoErrs *telemetry.Counter
	mPdDenied  *telemetry.Counter
	hBatch     func(float64)
}

// New builds a Server over a started Runtime. Telemetry lands in the
// runtime's registry, so serve.* series ride the existing /metrics plane.
func New(rt *runtime.Runtime, cfg Config) *Server {
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	reg := rt.Metrics()
	s := &Server{
		connSet:    connSet{conns: make(map[net.Conn]struct{}), gConns: reg.Gauge("serve.connections")},
		rt:         rt,
		cfg:        cfg,
		adm:        NewAdmission(cfg.Default, cfg.Tenants, reg),
		quit:       make(chan struct{}),
		mAccepted:  reg.Counter("serve.accepted"),
		mFramesIn:  reg.Counter("serve.frames_in"),
		mFramesOut: reg.Counter("serve.frames_out"),
		mBytesIn:   reg.Counter("serve.bytes_in"),
		mBytesOut:  reg.Counter("serve.bytes_out"),
		mBusy:      reg.Counter("serve.busy"),
		mReqErrs:   reg.Counter("serve.req_errors"),
		mProtoErrs: reg.Counter("serve.proto_errors"),
		mPdDenied:  reg.Counter("serve.pushdown_denied"),
	}
	h := reg.Histogram("serve.batch_size")
	s.hBatch = func(v float64) { h.Observe(v) }
	return s
}

// Admission exposes the admission controller (tests, manual pressure).
func (s *Server) Admission() *Admission { return s.adm }

// ListenAndServe binds the configured address and starts accepting. It
// returns the bound address (for ephemeral ports) without blocking.
func (s *Server) ListenAndServe() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.start(ln, s.handleConn)
	s.wg.Add(1)
	go s.demandLoop()
	return ln.Addr(), nil
}

// Close stops accepting, closes every live connection and waits for the
// per-connection pipelines to drain.
func (s *Server) Close() error {
	return s.shut(func() { close(s.quit) })
}

// demandLoop folds the orchestrator's per-queue demand estimates into the
// admission pressure signal: the sum of utilization rates (cores' worth of
// measured demand) against the worker pool capacity.
func (s *Server) demandLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(demandPoll)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			var demand float64
			for _, d := range s.rt.Orchestrator().QueueDemands() {
				demand += d.Rate
			}
			capacity := float64(s.rt.Options().MaxWorkers)
			s.adm.SetPressure(demand, capacity)
		}
	}
}

// pendingReq is what the completer needs of one admitted request besides
// the request itself.
type pendingReq struct {
	id      uint64         // wire request id
	payload core.BufHandle // payload buffer to release (may be zero)
	ts      *tenantState
}

// submittedBatch is one SubmitBatch's worth of requests handed to the
// completer, plus the submit error (if any) that already doomed them.
// entries[i] belongs to reqs[i].
type submittedBatch struct {
	entries []pendingReq
	reqs    []*core.Request
	subErr  error
}

func (s *Server) getBatch() *submittedBatch {
	if b, ok := s.batches.Get().(*submittedBatch); ok {
		return b
	}
	return &submittedBatch{
		entries: make([]pendingReq, 0, s.cfg.Batch),
		reqs:    make([]*core.Request, 0, s.cfg.Batch),
	}
}

func (s *Server) putBatch(b *submittedBatch) {
	clear(b.entries)
	clear(b.reqs)
	b.entries, b.reqs, b.subErr = b.entries[:0], b.reqs[:0], nil
	s.batches.Put(b)
}

// connWriter is a connection's write side. Whoever has frames for the peer
// gathers them and writes them itself, under mu: the completer a batch of
// responses, the reader a BUSY, pong or error response.
type connWriter struct {
	s    *Server
	conn net.Conn

	mu sync.Mutex
	g  frameGather
	// dead is set by the first failed write. Later frames are counted and
	// dropped, so the completer keeps draining — releasing requests, buffers
	// and admission slots — and never blocks on a peer that is gone. The
	// reader finds out from its own read error.
	dead bool
}

// flush writes what g holds in one vectored write. Every frame the server
// sends after the handshake passes through here, which is where
// serve.frames_out and serve.bytes_out count. The caller holds mu.
func (cw *connWriter) flush() {
	cw.s.mFramesOut.Add(int64(cw.g.frames))
	cw.s.mBytesOut.Add(int64(cw.g.size()))
	if cw.dead {
		cw.g.reset()
		return
	}
	if err := cw.g.writeTo(cw.conn); err != nil {
		cw.dead = true
	}
}

// frame writes one encoded frame (copied before frame returns).
func (cw *connWriter) frame(b []byte) {
	cw.mu.Lock()
	cw.g.whole(b)
	cw.flush()
	cw.mu.Unlock()
}

// handleConn serves one accepted connection until it ends; the connSet
// closes it.
func (s *Server) handleConn(conn net.Conn) {
	s.mAccepted.Inc()
	br := bufio.NewReaderSize(conn, 64<<10)
	fr := newFrameReader(br, s.cfg.MaxPayload)
	hello, ok := handshake(conn, fr, s.mProtoErrs)
	if !ok {
		return
	}

	cli := s.rt.Connect(ipc.Credentials{PID: -1, UID: 0, GID: 0})
	defer cli.Disconnect()
	defTenant := s.adm.Tenant(hello.Tenant)

	cw := &connWriter{s: s, conn: conn}
	// 64 submitted-but-unanswered batches is the most a connection may have
	// in flight before its reader stops reading (TCP pushback).
	compCh := make(chan *submittedBatch, 64)
	done := make(chan struct{})
	go func() { // completer
		defer close(done)
		s.completeLoop(cli, cw, compCh)
	}()

	s.readLoop(fr, br, cli, defTenant, cw, compCh)
	close(compCh)
	<-done
}

// readLoop reads frames, admits, and coalesces runs of same-stack requests
// into vectored submissions. It returns when the connection dies or the
// server shuts down.
func (s *Server) readLoop(fr *frameReader, br *bufio.Reader, cli *runtime.Client,
	defTenant *tenantState, cw *connWriter, compCh chan<- *submittedBatch) {

	batch := s.getBatch()
	var batchStack *core.Stack

	flush := func() {
		if len(batch.reqs) == 0 {
			return
		}
		s.hBatch(float64(len(batch.reqs)))
		batch.subErr = cli.SubmitBatch(batchStack, batch.reqs)
		compCh <- batch
		batch = s.getBatch()
		batchStack = nil
	}
	// Whatever ends the loop, requests already admitted are submitted and
	// answered (or failed) by the completer.
	defer func() {
		flush()
		s.putBatch(batch)
	}()

	// protoErr counts a read error when it is the peer breaking the
	// protocol rather than the connection ending.
	protoErr := func(err error) {
		if errors.Is(err, ErrTornFrame) || errors.Is(err, ErrFrameSize) || errors.Is(err, ErrBadPayload) {
			s.mProtoErrs.Inc()
		}
	}
	// counted records a frame read whole and intact.
	counted := func(plen int) {
		s.mFramesIn.Inc()
		s.mBytesIn.Add(int64(wireFmt.Header() + plen))
	}
	// reject answers a request that will not reach the stack.
	var enc []byte
	reject := func(ts *tenantState, payload core.BufHandle, id uint64, msg string) {
		s.adm.Done(ts)
		payload.Release()
		s.mReqErrs.Inc()
		flush()
		enc = AppendResp(enc[:0], &RespFrame{ID: id, Err: msg})
		cw.frame(enc)
	}

	// The key and the mount of each request are strings in the connection's
	// key slab, not one allocation each.
	rf := ReqFrame{keys: &fr.keys}
	for {
		typ, plen, err := fr.next()
		if err != nil {
			protoErr(err)
			return
		}
		if typ == FramePing {
			id, err := decodePayload(fr, DecodePing)
			if err != nil {
				protoErr(err)
				return
			}
			counted(plen)
			flush()
			enc = AppendPing(enc[:0], FramePong, id)
			cw.frame(enc)
			continue
		}
		if typ != FrameReq {
			s.mProtoErrs.Inc()
			return
		}

		// Zero-copy hand-off: the payload goes from the stream straight into
		// a stack-owned arena buffer — its one landing — and the stack
		// operates on it in place; a cache may keep it as a page by
		// reference. Nothing acts on the frame until bulk has checked its
		// CRC.
		n, err := fr.head(&rf)
		if err != nil {
			protoErr(err)
			return
		}
		var ph core.BufHandle
		if n > 0 {
			ph = core.AcquireHandle(n)
		}
		if err := fr.bulk(ph.Bytes()); err != nil {
			ph.Release()
			protoErr(err)
			return
		}
		counted(plen)

		// Admission: per-request tenant (router-forwarded frames carry their
		// own), defaulting to the connection's Hello tenant.
		ts := defTenant
		if rf.Tenant != "" && rf.Tenant != defTenant.policy.Name {
			ts = s.adm.Tenant(rf.Tenant)
		}
		if ok, reason, retry := s.adm.Admit(ts); !ok {
			ph.Release()
			s.mBusy.Inc()
			flush() // keep response ordering sane under overload
			enc = AppendBusy(enc[:0], &BusyFrame{ID: rf.ID, Reason: reason, RetryNs: retry})
			cw.frame(enc)
			continue
		}

		// Resolve the stack, exact mount else namespace prefix walk, on every
		// frame: the namespace is copy-on-write, so a lookup takes no lock,
		// and a stack mounted again at the same path is found at once.
		st, rem, found := s.rt.Namespace.Resolve(rf.Mount)
		if !found {
			reject(ts, ph, rf.ID, fmt.Sprintf("no stack serving %q", rf.Mount))
			continue
		}

		// Pushdown gate: a Prog-carrying frame runs a registered program
		// server-side, so it must clear the server's policy (per-tenant
		// allow-list) before it touches the stack. No policy = no remote
		// computation.
		progRef := ""
		if rf.Prog != "" {
			var admitErr error
			if s.cfg.Pushdown == nil {
				admitErr = errors.New("pushdown not enabled on this server")
			} else if p, err := s.cfg.Pushdown.Admit(ts.policy.Name, rf.Prog); err != nil {
				admitErr = err
			} else {
				progRef = p.Ref
			}
			if admitErr != nil {
				s.mPdDenied.Inc()
				reject(ts, ph, rf.ID, admitErr.Error())
				continue
			}
		}

		req := core.NewRequest(rf.Op)
		req.Path = rf.Path
		if req.Path == "" {
			// rem is a slice of the mount, a slab string; LabFS keeps paths.
			req.Path = strings.Clone(rem)
		}
		req.Key = rf.Key
		req.Offset = rf.Offset
		req.Size = int(rf.Size)
		if progRef != "" {
			req.Prog = progRef
			s.cfg.Pushdown.Clamp(ts.policy.Name, req)
		}
		if n > 0 {
			req.SetPayload(ph)
			if req.Size == 0 {
				req.Size = n
			}
		}

		// Coalesce: same-stack runs batch into one vectored submission.
		if batchStack != nil && (batchStack != st || len(batch.reqs) >= s.cfg.Batch) {
			flush()
		}
		batchStack = st
		batch.reqs = append(batch.reqs, req)
		batch.entries = append(batch.entries, pendingReq{id: rf.ID, payload: ph, ts: ts})

		// Flush when the wire has nothing more buffered (the batch window
		// closes with the burst) or the batch is full.
		if len(batch.reqs) >= s.cfg.Batch || br.Buffered() == 0 {
			flush()
		}
	}
}

// completeLoop reaps submitted batches in order and answers them in at
// most two vectored writes per batch. It waits for the batch's first
// request and writes every response that is done by then — the run of done
// requests from the front, so responses keep their order — then waits for
// the rest and writes them. The write elements point at the result views
// themselves (req.Value: a cache page, a stack-owned buffer), so the
// requests, their ValueH views and the payload handles of a write are
// released only after that write has returned — DESIGN.md §13. Every
// request is reaped through WaitAll, so the client's clock advances over
// the same requests in the same order as one WaitAll of the batch.
func (s *Server) completeLoop(cli *runtime.Client, cw *connWriter, compCh <-chan *submittedBatch) {
	for b := range compCh {
		// WaitAll also when submission failed partway (runtime stopped):
		// whatever did get queued must be reaped so CQ slots are recycled;
		// already-done requests return immediately. Each request carries
		// its own error.
		_ = cli.WaitAll(b.reqs[:1])
		ready := 1
		for ready < len(b.reqs) && b.reqs[ready].Done() {
			ready++
		}
		_ = cli.WaitAll(b.reqs[1:ready])
		s.answer(cw, b, 0, ready)
		if ready < len(b.reqs) {
			_ = cli.WaitAll(b.reqs[ready:])
			s.answer(cw, b, ready, len(b.reqs))
		}
		s.putBatch(b)
	}
}

// answer writes the responses of b's requests lo..hi-1 in one vectored
// write, then releases those requests, their payloads and their admission
// slots.
func (s *Server) answer(cw *connWriter, b *submittedBatch, lo, hi int) {
	cw.mu.Lock()
	for i := lo; i < hi; i++ {
		req := b.reqs[i]
		resp := RespFrame{ID: b.entries[i].id}
		switch {
		case req.Err != nil:
			resp.Err = req.Err.Error()
			s.mReqErrs.Inc()
		case b.subErr != nil:
			resp.Err = b.subErr.Error()
			s.mReqErrs.Inc()
		default:
			resp.OK = true
			resp.Result = req.Result
			resp.Value = req.Value
		}
		cw.g.resp(&resp)
	}
	cw.flush()
	cw.mu.Unlock()

	for i := lo; i < hi; i++ {
		e := &b.entries[i]
		e.payload.Release()
		b.reqs[i].Release()
		s.adm.Done(e.ts)
	}
}
