package serve

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"labstor/internal/telemetry"
)

// RouteKey reduces a request's mount path to its sharding key: the
// namespace scheme plus the first path component, so everything under one
// tenant/namespace prefix ("fs::/tenants/a/...") lands on the same shard
// while distinct prefixes spread across the ring.
func RouteKey(mount string) string {
	i := strings.Index(mount, "::")
	if i < 0 {
		return mount
	}
	rest := strings.TrimPrefix(mount[i+2:], "/")
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return mount[:i+2] + "/" + rest
}

// Ring is a consistent-hash ring over backend addresses: each backend owns
// `replicas` virtual points, keys map to the first point clockwise. Adding
// or removing one backend moves only ~1/N of the keyspace.
type Ring struct {
	points   []ringPoint
	backends []string
}

type ringPoint struct {
	hash uint32
	idx  int
}

// ringHash hashes a string onto the ring. FNV-32a alone clusters
// near-identical strings ("msg::/s0".."msg::/s15" differ only in a
// trailing digit, so their hashes land within a narrow band of the
// keyspace); the murmur3 finalizer avalanches the bits so similar keys
// and vnode labels spread uniformly.
func ringHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	x := h.Sum32()
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// NewRing builds a ring (replicas 0 = 64 virtual points per backend).
func NewRing(backends []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &Ring{backends: append([]string(nil), backends...)}
	for i, b := range r.backends {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", b, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Lookup returns the backend serving key.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	hv := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hv })
	if i == len(r.points) {
		i = 0
	}
	return r.backends[r.points[i].idx]
}

// Router is the thin shard-routing proxy: client connections speak the
// same wire protocol, and each request is forwarded to the backend owning
// its mount's RouteKey. Upstream connections are shared (muxed) across
// client connections with request-id rewriting, so N clients cost
// O(backends) upstream sockets, not O(N x backends).
type Router struct {
	ring    *Ring
	tenant  string // tenant the router's upstream Hellos present
	metrics *telemetry.Registry

	ln        net.Listener
	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	upstreams map[string]*upstream
	nextGID   atomic.Uint64

	mForwarded *telemetry.Counter
	mUpErrors  *telemetry.Counter
	gConns     *telemetry.Gauge
}

// NewRouter builds a router over the backend set. reg may be nil (a
// private registry is created); pass a runtime's registry to surface
// router.* series on an existing /metrics plane.
func NewRouter(backends []string, replicas int, reg *telemetry.Registry) *Router {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Router{
		ring:       NewRing(backends, replicas),
		tenant:     "router",
		metrics:    reg,
		quit:       make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		upstreams:  make(map[string]*upstream),
		mForwarded: reg.Counter("router.frames_forwarded"),
		mUpErrors:  reg.Counter("router.upstream_errors"),
		gConns:     reg.Gauge("router.connections"),
	}
}

// Ring exposes the routing ring (tests, labctl).
func (r *Router) Ring() *Ring { return r.ring }

// Metrics exposes the router's registry.
func (r *Router) Metrics() *telemetry.Registry { return r.metrics }

// ListenAndServe binds addr and starts proxying; returns the bound address.
func (r *Router) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r.ln = ln
	r.wg.Add(1)
	go r.acceptLoop()
	return ln.Addr(), nil
}

// Close stops the router and closes every client and upstream connection.
func (r *Router) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.quit)
		if r.ln != nil {
			err = r.ln.Close()
		}
		r.mu.Lock()
		for c := range r.conns {
			c.Close()
		}
		ups := make([]*upstream, 0, len(r.upstreams))
		for _, u := range r.upstreams {
			ups = append(ups, u)
		}
		r.mu.Unlock()
		for _, u := range ups {
			u.close()
		}
		r.wg.Wait()
	})
	return err
}

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		r.mu.Lock()
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.gConns.Add(1)
		r.wg.Add(1)
		go r.handleConn(conn)
	}
}

// clientConn is one proxied client connection's write side. Unlike the
// server's connections it keeps a writer goroutine: an upstream's reader is
// shared by every client of that shard, so it must hand a frame to a queue
// and move on — a client socket that is slow to drain may delay that
// client's frames, never another's.
type clientConn struct {
	// writeCh queues whole encoded frames for the writer. 256 is how many
	// responses a client may leave undrained before the shared upstream
	// readers start to wait for it.
	writeCh chan []byte
	// free carries written-out buffers back to whoever encodes this
	// client's next frame; as many as writeCh can hold are worth keeping.
	free chan []byte
	done chan struct{}
}

func newClientConn() *clientConn {
	return &clientConn{writeCh: make(chan []byte, 256), free: make(chan []byte, 256), done: make(chan struct{})}
}

// buffer returns an empty buffer to encode a frame for this client into: one
// the writer has handed back, or nil.
func (cc *clientConn) buffer() []byte {
	select {
	case b := <-cc.free:
		return b[:0]
	default:
		return nil
	}
}

// send delivers a client-bound frame unless the connection is gone. The
// writer owns b from here on.
func (cc *clientConn) send(b []byte) {
	select {
	case cc.writeCh <- b:
	case <-cc.done:
	}
}

// writeLoop writes queued frames to the client until done closes: everything
// queued at the moment goes out in one vectored write, and the buffers go
// back to free. After a write error it keeps draining (discarding) so
// senders never block on a dead peer.
func (cc *clientConn) writeLoop(conn net.Conn) {
	var held, vec [][]byte // the frames of one write: to hand back, and as the vector
	var out net.Buffers    // WriteTo's receiver: it consumes the vector it is given
	dead := false
	for {
		select {
		case b := <-cc.writeCh:
			held = append(held[:0], b)
		case <-cc.done:
			return
		}
	drain:
		for {
			select {
			case b := <-cc.writeCh:
				held = append(held, b)
			default:
				break drain
			}
		}
		if !dead {
			vec = append(vec[:0], held...)
			out = vec
			_, err := out.WriteTo(conn)
			dead = err != nil
		}
		for i, b := range held {
			select {
			case cc.free <- b:
			default:
			}
			held[i] = nil
		}
	}
}

func (r *Router) handleConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		r.gConns.Add(-1)
		conn.Close()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	fr := newFrameReader(br, DefaultMaxPayload)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hello, err := fr.hello()
	if err != nil || hello.Version != ProtoVersion {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if _, err := conn.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: hello.Tenant})); err != nil {
		return
	}

	cc := newClientConn()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		cc.writeLoop(conn)
	}()
	// Stop the writer before waiting on it (defers run LIFO after this one).
	defer func() {
		close(cc.done)
		writerWG.Wait()
	}()

	// ups caches mount -> upstream for this connection, as the server
	// caches mount -> stack: the route key, the ring search and the
	// router-wide upstream table are consulted once per mount instead of
	// once per frame. An entry goes when a forward through it fails, and is
	// resolved again once its upstream is known to have closed. Any string
	// a client sends as a mount becomes a key, so the map is emptied at
	// maxRouteCache entries rather than left to grow with them.
	const maxRouteCache = 1024
	ups := make(map[string]*upstream)
	fail := func(id uint64, format string, args ...any) {
		r.mUpErrors.Inc()
		cc.send(AppendResp(cc.buffer(), &RespFrame{ID: id, Err: fmt.Sprintf(format, args...)}))
	}

	var rf ReqFrame
	var payload []byte // staging for one request's payload, reused
	for {
		typ, _, err := fr.next()
		if err != nil {
			return
		}
		if typ == FramePing {
			id, err := decodePayload(fr, DecodePing)
			if err != nil {
				return
			}
			cc.send(AppendPing(cc.buffer(), FramePong, id))
			continue
		}
		if typ != FrameReq {
			return
		}
		// The frame goes upstream with another id and tenant, so with
		// another CRC — which precedes the payload on the wire. The payload
		// therefore waits here until forward has sealed the new head.
		n, err := fr.head(&rf)
		if err != nil {
			return
		}
		payload = slices.Grow(payload[:0], n)[:n]
		if err := fr.bulk(payload); err != nil {
			return
		}
		rf.Payload = payload
		// Tenant travels per-frame across the mux; fill the connection
		// default in so backend admission attributes the right tenant.
		if rf.Tenant == "" {
			rf.Tenant = hello.Tenant
		}
		u := ups[rf.Mount]
		if u == nil || u.closed.Load() {
			backend := r.ring.Lookup(RouteKey(rf.Mount))
			if u, err = r.upstream(backend); err != nil {
				delete(ups, rf.Mount)
				fail(rf.ID, "shard %s unreachable: %v", backend, err)
				continue
			}
			if len(ups) >= maxRouteCache {
				clear(ups)
			}
			ups[rf.Mount] = u
		}
		if err := u.forward(&rf, cc, br.Buffered() == 0); err != nil {
			delete(ups, rf.Mount)
			r.dropUpstream(u.backend, u)
			fail(rf.ID, "shard %s write failed: %v", u.backend, err)
		}
	}
}

// upstream returns (dialing on first use) the shared connection to backend.
func (r *Router) upstream(backend string) (*upstream, error) {
	r.mu.Lock()
	u, ok := r.upstreams[backend]
	r.mu.Unlock()
	if ok {
		return u, nil
	}
	nu, err := r.dialUpstream(backend)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if cur, ok := r.upstreams[backend]; ok {
		r.mu.Unlock()
		nu.close()
		return cur, nil
	}
	r.upstreams[backend] = nu
	r.mu.Unlock()
	return nu, nil
}

func (r *Router) dropUpstream(backend string, u *upstream) {
	r.mu.Lock()
	if r.upstreams[backend] == u {
		delete(r.upstreams, backend)
	}
	r.mu.Unlock()
	u.close()
}

// upstream is one shared backend connection: requests from many client
// connections mux onto it with globally-unique rewritten ids, and the
// reader demuxes completions back to their owners.
type upstream struct {
	r       *Router
	backend string
	conn    net.Conn

	wmu sync.Mutex
	bw  *bufio.Writer
	enc []byte

	pmu     sync.Mutex
	pending map[uint64]pendingRoute
	// closed is set under pmu (forward's check-and-insert must not interleave
	// with the reader failing everything pending) and read without it by
	// handleConn's route cache.
	closed atomic.Bool

	mOps *telemetry.Counter
}

// pendingRoute maps a rewritten (global) id back to its owner.
type pendingRoute struct {
	cc *clientConn
	id uint64 // the client's original request id
}

func (r *Router) dialUpstream(backend string) (*upstream, error) {
	nc, fr, err := dialHello(backend, r.tenant)
	if err != nil {
		return nil, err
	}

	u := &upstream{
		r:       r,
		backend: backend,
		conn:    nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]pendingRoute),
		mOps:    r.metrics.Counter("router.backend_ops;backend=" + backend),
	}
	r.wg.Add(1)
	go u.readLoop(fr)
	return u, nil
}

// forward rewrites the request id and writes the frame upstream, flushing
// when the client's read side has gone momentarily idle.
func (u *upstream) forward(rf *ReqFrame, cc *clientConn, flush bool) error {
	gid := u.r.nextGID.Add(1)
	u.pmu.Lock()
	if u.closed.Load() {
		u.pmu.Unlock()
		return ErrConnClosed
	}
	u.pending[gid] = pendingRoute{cc: cc, id: rf.ID}
	u.pmu.Unlock()

	orig := rf.ID
	rf.ID = gid
	u.wmu.Lock()
	var err error
	u.enc, err = writeReq(u.bw, u.enc, rf)
	if err == nil && flush {
		err = u.bw.Flush()
	}
	u.wmu.Unlock()
	rf.ID = orig
	if err != nil {
		u.take(gid)
		return err
	}
	u.r.mForwarded.Inc()
	u.mOps.Inc()
	return nil
}

// take removes and returns the route of a rewritten id.
func (u *upstream) take(gid uint64) (pendingRoute, bool) {
	u.pmu.Lock()
	route, ok := u.pending[gid]
	delete(u.pending, gid)
	u.pmu.Unlock()
	return route, ok
}

// readLoop demuxes backend completions to their client connections,
// rewriting ids back. A response is re-encoded — new id, so new CRC — into
// a buffer its client's writer has handed back, and the value is read off
// the upstream connection straight into its place in that frame.
func (u *upstream) readLoop(fr *frameReader) {
	defer u.r.wg.Done()
	var rf RespFrame
	for u.relay(fr, &rf) == nil {
	}
	// Upstream died: every outstanding request gets an explicit error so
	// clients never hang on a vanished shard.
	u.pmu.Lock()
	u.closed.Store(true)
	routes := make([]pendingRoute, 0, len(u.pending))
	for _, rt := range u.pending {
		routes = append(routes, rt)
	}
	u.pending = map[uint64]pendingRoute{}
	u.pmu.Unlock()
	for _, rt := range routes {
		u.lost(rt)
	}
	u.r.dropUpstream(u.backend, u)
}

// lost answers a request whose response the upstream will not deliver.
func (u *upstream) lost(rt pendingRoute) {
	rt.cc.send(AppendResp(rt.cc.buffer(), &RespFrame{ID: rt.id, Err: "shard connection lost: " + u.backend}))
}

// relay passes one frame from the backend on to the client that waits for
// it. rf is scratch.
func (u *upstream) relay(fr *frameReader, rf *RespFrame) error {
	typ, _, err := fr.next()
	if err != nil {
		return err
	}
	switch typ {
	case FrameResp:
		n, err := fr.head(rf)
		if err != nil {
			return err
		}
		route, ok := u.take(rf.ID)
		var b []byte
		if ok {
			b = route.cc.buffer()
		}
		rf.ID = route.id
		b = appendRespHead(b, rf, n)
		value := len(b)
		b = slices.Grow(b, n)[:value+n]
		err = fr.bulk(b[value:])
		switch {
		case !ok:
		case err != nil:
			u.lost(route) // no longer pending, so readLoop's sweep would miss it
		default:
			wireFmt.Seal(b[:value], 0, b[value:])
			route.cc.send(b)
		}
		return err
	case FrameBusy:
		bf, err := decodePayload(fr, DecodeBusy)
		if err != nil {
			return err
		}
		if route, ok := u.take(bf.ID); ok {
			bf.ID = route.id
			route.cc.send(AppendBusy(route.cc.buffer(), &bf))
		}
	default: // pongs etc. have no route
		_, err = fr.payload()
	}
	return err
}

func (u *upstream) close() {
	u.pmu.Lock()
	u.closed.Store(true)
	u.pmu.Unlock()
	u.conn.Close()
}
