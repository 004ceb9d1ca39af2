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

	"labstor/internal/codec"
	"labstor/internal/core"
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
	// connSet's mu also guards upstreams, and its closed flag, set before
	// Close sweeps them, means no upstream is dialed after the sweep, so
	// none is left for wg.Wait to wait on.
	connSet
	ring    *Ring
	tenant  string // tenant the router's upstream Hellos present
	metrics *telemetry.Registry

	upstreams map[string]*upstream
	nextGID   atomic.Uint64

	mForwarded *telemetry.Counter
	mUpErrors  *telemetry.Counter
}

// errRouterClosed is why a closing router dials no upstream.
var errRouterClosed = errors.New("serve: router closed")

// NewRouter builds a router over the backend set. reg may be nil (a
// private registry is created); pass a runtime's registry to surface
// router.* series on an existing /metrics plane.
func NewRouter(backends []string, replicas int, reg *telemetry.Registry) *Router {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Router{
		connSet:    connSet{conns: make(map[net.Conn]struct{}), gConns: reg.Gauge("router.connections")},
		ring:       NewRing(backends, replicas),
		tenant:     "router",
		metrics:    reg,
		upstreams:  make(map[string]*upstream),
		mForwarded: reg.Counter("router.frames_forwarded"),
		mUpErrors:  reg.Counter("router.upstream_errors"),
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
	r.start(ln, r.handleConn)
	return ln.Addr(), nil
}

// Close stops the router and closes every client and upstream connection.
func (r *Router) Close() error {
	return r.shut(func() {
		r.mu.Lock()
		ups := make([]*upstream, 0, len(r.upstreams))
		for _, u := range r.upstreams {
			ups = append(ups, u)
		}
		r.mu.Unlock()
		for _, u := range ups {
			u.close()
		}
	})
}

// clientWriteTimeout bounds every write to a client. The upstream readers,
// each shared by every client of its shard, write responses themselves: a
// client that cannot take a frame within this long is cut off, so it holds
// up the other clients of its shards once, for at most this long.
const clientWriteTimeout = time.Second

// clientConn is one proxied client connection's write side. As on the
// server, whoever has a frame for the client writes it, under mu: the
// client's reader a pong or an error, an upstream's reader a response.
type clientConn struct {
	conn net.Conn
	mu   sync.Mutex
	// dead is set by the first failed write, which also closes the
	// connection: later frames are dropped, and the client's reader ends on
	// its read error.
	dead bool
}

// write sends one encoded frame to the client, or drops it if the
// connection is dead. b may be reused once write returns.
func (cc *clientConn) write(b []byte) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return
	}
	cc.conn.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
	if _, err := cc.conn.Write(b); err != nil {
		cc.dead = true
		cc.conn.Close()
	}
}

// routeHead is a request's head as the router forwards it: the id it
// rewrites, the tenant it may fill in, and the fields from the mount through
// the prog, checked as ReqFrame.decodeHead checks them and kept as encoded —
// never made into strings and encoded again, so nothing is allocated.
type routeHead struct {
	id     uint64
	tenant []byte
	fields []byte // the mount through the prog, as encoded
}

func (h *routeHead) decodeHead(d *codec.Decoder) uint64 {
	h.id = d.Uvarint()
	h.tenant = append(h.tenant[:0], d.Bytes()...)
	at := d.Off()
	d.Bytes() // mount
	op := core.Op(d.Byte())
	d.Bytes()  // path
	d.Bytes()  // key
	d.Varint() // offset
	d.Varint() // size
	d.Bytes()  // prog
	if op > maxWireOp {
		d.Fail()
	}
	h.fields = append(h.fields[:0], d.Span(at)...)
	return d.Uvarint()
}

// appendHead appends the head of the request as it goes upstream, for an
// n-byte payload: id in place of the client's, the tenant, or def when the
// client sent none, and the other fields as the client encoded them. The
// header stays open until Seal is given the payload.
func (h *routeHead) appendHead(dst []byte, id uint64, def []byte, n int) []byte {
	tenant := h.tenant
	if len(tenant) == 0 {
		tenant = def
	}
	dst = wireFmt.Reserve(dst, FrameReq)
	dst = codec.AppendUvarint(dst, id)
	dst = codec.AppendUvarint(dst, uint64(len(tenant)))
	dst = append(dst, tenant...)
	dst = append(dst, h.fields...)
	return codec.AppendUvarint(dst, uint64(n))
}

// handleConn proxies one accepted client connection until it ends; the
// connSet closes it.
func (r *Router) handleConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	fr := newFrameReader(br, DefaultMaxPayload)
	hello, ok := handshake(conn, fr, nil)
	if !ok {
		return
	}
	cc := &clientConn{conn: conn}

	// ups caches mount -> upstream for this connection, as the server
	// caches mount -> stack: the route key, the ring search and the
	// router-wide upstream table are consulted once per mount instead of
	// once per frame. An entry goes when a forward through it fails, and is
	// resolved again once its upstream is known to have closed. Any string
	// a client sends as a mount becomes a key, so the map is emptied at
	// maxRouteCache entries rather than left to grow with them.
	const maxRouteCache = 1024
	ups := make(map[string]*upstream)
	var out []byte // the frames this reader answers itself, encoded in turn
	fail := func(id uint64, format string, args ...any) {
		r.mUpErrors.Inc()
		out = AppendResp(out[:0], &RespFrame{ID: id, Err: fmt.Sprintf(format, args...)})
		cc.write(out)
	}

	// Tenant travels per-frame across the mux; the connection default fills
	// in an empty one so backend admission attributes the right tenant.
	defTenant := []byte(hello.Tenant)
	var h routeHead
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
			out = AppendPing(out[:0], FramePong, id)
			cc.write(out)
			continue
		}
		if typ != FrameReq {
			return
		}
		// The frame goes upstream with another id and tenant, so with
		// another CRC — which precedes the payload on the wire. The payload
		// therefore waits here until forward has sealed the new head.
		n, err := fr.head(&h)
		if err != nil {
			return
		}
		payload = slices.Grow(payload[:0], n)[:n]
		if err := fr.bulk(payload); err != nil {
			return
		}
		d := codec.NewDecoder(h.fields)
		mount := d.Bytes()
		u := ups[string(mount)]
		if u == nil || u.closed.Load() {
			m := string(mount)
			backend := r.ring.Lookup(RouteKey(m))
			if u, err = r.upstream(backend); err != nil {
				delete(ups, m)
				fail(h.id, "shard %s unreachable: %v", backend, err)
				continue
			}
			if len(ups) >= maxRouteCache {
				clear(ups)
			}
			ups[m] = u
		}
		if err := u.forward(&h, defTenant, payload, cc, br.Buffered() == 0); err != nil {
			delete(ups, string(mount))
			r.dropUpstream(u.backend, u)
			fail(h.id, "shard %s write failed: %v", u.backend, err)
		}
	}
}

// upstream returns (dialing on first use) the shared connection to backend.
func (r *Router) upstream(backend string) (*upstream, error) {
	r.mu.Lock()
	u, ok := r.upstreams[backend]
	closed := r.closed
	r.mu.Unlock()
	switch {
	case closed:
		return nil, errRouterClosed
	case ok:
		return u, nil
	}
	nc, fr, err := dialHello(backend, r.tenant)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		nc.Close()
		return nil, errRouterClosed
	}
	if cur, ok := r.upstreams[backend]; ok {
		nc.Close()
		return cur, nil
	}
	u = &upstream{
		r:       r,
		backend: backend,
		conn:    nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]pendingRoute),
		mOps:    r.metrics.Counter("router.backend_ops;backend=" + backend),
	}
	r.upstreams[backend] = u
	r.wg.Add(1)
	go u.readLoop(fr)
	return u, nil
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

	out []byte // the reader's scratch for the frames it writes to clients

	mOps *telemetry.Counter
}

// pendingRoute maps a rewritten (global) id back to its owner.
type pendingRoute struct {
	cc *clientConn
	id uint64 // the client's original request id
}

// forward writes the request upstream under a rewritten id, flushing when
// the client's read side has gone momentarily idle. def is the client's
// default tenant.
func (u *upstream) forward(h *routeHead, def, payload []byte, cc *clientConn, flush bool) error {
	gid := u.r.nextGID.Add(1)
	u.pmu.Lock()
	if u.closed.Load() {
		u.pmu.Unlock()
		return ErrConnClosed
	}
	u.pending[gid] = pendingRoute{cc: cc, id: h.id}
	u.pmu.Unlock()

	u.wmu.Lock()
	u.enc = wireFmt.Seal(h.appendHead(u.enc[:0], gid, def, len(payload)), 0, payload)
	_, err := u.bw.Write(u.enc)
	if err == nil {
		_, err = u.bw.Write(payload)
	}
	if err == nil && flush {
		err = u.bw.Flush()
	}
	u.wmu.Unlock()
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
// the reader's scratch, with the value read off the upstream connection
// straight into its place in that frame, and written to the client there
// and then.
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
	u.out = AppendResp(u.out[:0], &RespFrame{ID: rt.id, Err: "shard connection lost: " + u.backend})
	rt.cc.write(u.out)
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
		rf.ID = route.id
		b := appendRespHead(u.out[:0], rf, n)
		value := len(b)
		b = slices.Grow(b, n)[:value+n]
		u.out = b
		err = fr.bulk(b[value:])
		switch {
		case !ok:
		case err != nil:
			u.lost(route) // no longer pending, so readLoop's sweep would miss it
		default:
			route.cc.write(wireFmt.Seal(b, 0, nil))
		}
		return err
	case FrameBusy:
		bf, err := decodePayload(fr, DecodeBusy)
		if err != nil {
			return err
		}
		if route, ok := u.take(bf.ID); ok {
			bf.ID = route.id
			u.out = AppendBusy(u.out[:0], &bf)
			route.cc.write(u.out)
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
