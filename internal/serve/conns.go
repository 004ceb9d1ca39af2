package serve

import (
	"errors"
	"net"
	"sync"
	"time"

	"labstor/internal/telemetry"
)

// handshakeTimeout bounds the Hello exchange. A client sends Hello in its
// first write, so only a peer that never speaks the protocol waits this
// long, and it holds one goroutine and one socket while it does. A
// constant, not an option: no caller needs another value.
const handshakeTimeout = 5 * time.Second

// handshake runs the Hello exchange that opens every connection Server and
// Router accept: the first frame, read within handshakeTimeout, must be a
// Hello of ProtoVersion, and is acked with a Hello naming its tenant. On
// false the caller closes conn unanswered. A peer at fault (silence,
// another frame, another version) is counted in protoErrs, if not nil; a
// failed ack write is not.
func handshake(conn net.Conn, fr *frameReader, protoErrs *telemetry.Counter) (HelloFrame, bool) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	hello, err := fr.hello()
	if err != nil || hello.Version != ProtoVersion {
		if protoErrs != nil {
			protoErrs.Inc()
		}
		return hello, false
	}
	conn.SetReadDeadline(time.Time{})
	_, err = conn.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: hello.Tenant}))
	return hello, err == nil
}

// connSet is the connection lifetime Server and Router share: a listener,
// its accept loop, the set of live connections and the closed flag. Both
// embed it, so their handlers run under one Close protocol.
type connSet struct {
	ln net.Listener
	// wg counts the accept loop, every connection's handler and any
	// goroutine the owner adds; shut waits for all of them.
	wg        sync.WaitGroup
	closeOnce sync.Once
	gConns    *telemetry.Gauge // live connections

	// mu guards conns and closed; an owner may guard its own state with it
	// too (the router's upstream table).
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	// closed is set under mu by shut before it closes conns, so a
	// connection accepted while shut runs is closed by acceptLoop instead
	// of joining conns after the sweep.
	closed bool
}

// start accepts connections on ln until shut, running handle on each in a
// goroutine of its own.
func (cs *connSet) start(ln net.Listener, handle func(net.Conn)) {
	cs.ln = ln
	cs.wg.Add(1)
	go cs.acceptLoop(handle)
}

func (cs *connSet) acceptLoop(handle func(net.Conn)) {
	defer cs.wg.Done()
	for {
		conn, err := cs.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		cs.mu.Lock()
		if cs.closed {
			cs.mu.Unlock()
			conn.Close()
			return
		}
		cs.conns[conn] = struct{}{}
		cs.wg.Add(1)
		cs.mu.Unlock()
		cs.gConns.Add(1)
		go cs.track(conn, handle)
	}
}

// track runs handle on conn, then forgets and closes it.
func (cs *connSet) track(conn net.Conn, handle func(net.Conn)) {
	defer cs.wg.Done()
	defer func() {
		cs.mu.Lock()
		delete(cs.conns, conn)
		cs.mu.Unlock()
		cs.gConns.Add(-1)
		conn.Close()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	handle(conn)
}

// shut stops accepting, closes every live connection, runs sweep (the
// owner's own teardown) and waits for every goroutine in wg. Calls after
// the first do nothing.
func (cs *connSet) shut(sweep func()) error {
	var err error
	cs.closeOnce.Do(func() {
		if cs.ln != nil {
			err = cs.ln.Close()
		}
		cs.mu.Lock()
		cs.closed = true
		for c := range cs.conns {
			c.Close()
		}
		cs.mu.Unlock()
		sweep()
		cs.wg.Wait()
	})
	return err
}
