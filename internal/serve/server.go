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
	// DemandPollMs is how often the server folds the orchestrator's
	// per-queue demand estimates into the admission pressure signal
	// (0 = 50ms, negative disables the feed).
	DemandPollMs int
	// HandshakeTimeout bounds the Hello exchange (0 = 5s).
	HandshakeTimeout time.Duration
	// Pushdown is the program policy for Prog-carrying scan frames:
	// per-tenant allow-lists plus byte/step budget caps. nil rejects every
	// program (secure default — remote computation must be opted into).
	Pushdown *pushdown.Policy
}

// Server is the TCP serving front end: it multiplexes many client
// connections onto the Runtime's queue-pair fast path. Each connection gets
// one runtime.Client (one queue pair, placed by the orchestrator like any
// local client) and two goroutines:
//
//	reader    — parses frame heads, lands payloads in registered buffers,
//	            runs admission, coalesces admitted requests into vectored
//	            SubmitBatch calls
//	completer — reaps each submitted batch with WaitAll and writes its
//	            responses itself: heads from a scratch, values from where
//	            the stack left them, one writev per batch (connWriter)
//
// There is no writer goroutine. The reader's own frames (BUSY, pong, error
// responses) go out through the same connWriter under its lock.
//
// Backpressure is explicit end to end: admission rejections are BUSY
// frames, a full submission ring blocks the reader (TCP pushback), a peer
// that does not read blocks the completer in its write, and the completer
// channel bounds how many submitted-but-unwritten batches exist.
type Server struct {
	rt        *runtime.Runtime
	cfg       Config
	adm       *Admission
	ln        net.Listener
	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	conns map[net.Conn]struct{}

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
	gConns     *telemetry.Gauge
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
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	reg := rt.Metrics()
	s := &Server{
		rt:         rt,
		cfg:        cfg,
		adm:        NewAdmission(cfg.Default, cfg.Tenants, reg),
		quit:       make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		mAccepted:  reg.Counter("serve.accepted"),
		mFramesIn:  reg.Counter("serve.frames_in"),
		mFramesOut: reg.Counter("serve.frames_out"),
		mBytesIn:   reg.Counter("serve.bytes_in"),
		mBytesOut:  reg.Counter("serve.bytes_out"),
		mBusy:      reg.Counter("serve.busy"),
		mReqErrs:   reg.Counter("serve.req_errors"),
		mProtoErrs: reg.Counter("serve.proto_errors"),
		mPdDenied:  reg.Counter("serve.pushdown_denied"),
		gConns:     reg.Gauge("serve.connections"),
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
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.DemandPollMs >= 0 {
		s.wg.Add(1)
		go s.demandLoop()
	}
	return ln.Addr(), nil
}

// Close stops accepting, closes every live connection and waits for the
// per-connection pipelines to drain.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.quit)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mAccepted.Inc()
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.gConns.Add(1)
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// demandLoop folds the orchestrator's per-queue demand estimates into the
// admission pressure signal: the sum of utilization rates (cores' worth of
// measured demand) against the worker pool capacity.
func (s *Server) demandLoop() {
	defer s.wg.Done()
	period := time.Duration(s.cfg.DemandPollMs) * time.Millisecond
	if period <= 0 {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
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
	payload core.BufHandle // registered payload buffer to release (may be zero)
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

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.gConns.Add(-1)
		conn.Close()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	fr := newFrameReader(br, s.cfg.MaxPayload)

	// Handshake: Hello in, Hello (ack) out, bounded by a deadline.
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	hello, err := fr.hello()
	if err != nil || hello.Version != ProtoVersion {
		s.mProtoErrs.Inc()
		return
	}
	conn.SetReadDeadline(time.Time{})
	ack := AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: hello.Tenant})
	if _, err := conn.Write(ack); err != nil {
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
		// a registered arena buffer — its one landing — and the stack
		// operates on it in place. Oversized payloads land in plain heap
		// memory. Nothing acts on the frame until bulk has checked its CRC.
		n, err := fr.head(&rf)
		if err != nil {
			protoErr(err)
			return
		}
		var ph core.BufHandle
		var data []byte
		if n > 0 {
			if h, err := cli.AcquireBuffer(n); err == nil {
				ph, data = h, h.Bytes()
			} else {
				data = make([]byte, n)
			}
		}
		if err := fr.bulk(data); err != nil {
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
		st, found := s.rt.Namespace.Lookup(rf.Mount)
		var rem string
		if !found {
			if st, rem, found = s.rt.Namespace.Resolve(rf.Mount); !found {
				reject(ts, ph, rf.ID, fmt.Sprintf("no stack serving %q", rf.Mount))
				continue
			}
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

		req := core.AcquireRequest(rf.Op)
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
			if ph.Valid() {
				req.SetPayload(ph)
			} else {
				req.Data = data
			}
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

// completeLoop reaps submitted batches in order and answers them. A batch's
// responses go out in one vectored write whose elements point at the result
// views themselves (req.Value: a cache page, a stack-owned buffer), so the
// requests, their ValueH views and the payload handles are released only
// after that write has returned — DESIGN.md §13.
func (s *Server) completeLoop(cli *runtime.Client, cw *connWriter, compCh <-chan *submittedBatch) {
	for b := range compCh {
		// WaitAll also when submission failed partway (runtime stopped):
		// whatever did get queued must be reaped so CQ slots are recycled;
		// already-done requests return immediately.
		_ = cli.WaitAll(b.reqs) // each request carries its own error

		cw.mu.Lock()
		for i, req := range b.reqs {
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

		for i, req := range b.reqs {
			e := &b.entries[i]
			e.payload.Release()
			req.Release()
			s.adm.Done(e.ts)
		}
		s.putBatch(b)
	}
}
