package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrConnClosed is returned for requests outstanding when the connection
// dies or Close is called.
var ErrConnClosed = errors.New("serve: connection closed")

// Result is one request's outcome at the client: either a response frame
// (Value is the result's own slice, read into straight off the connection
// and safe to retain) or a busy rejection with the server's retry hint.
type Result struct {
	Resp    RespFrame
	Busy    bool
	Reason  byte
	RetryNs int64
}

// Err folds the result into a single error: nil on success, the server's
// request error, or a busy description.
func (r *Result) Err() error {
	if r.Busy {
		return fmt.Errorf("serve: busy (%s, retry in %s)", BusyReasonString(r.Reason), time.Duration(r.RetryNs))
	}
	if !r.Resp.OK {
		return errors.New(r.Resp.Err)
	}
	return nil
}

// Conn is a client connection to a serving front end (or router). It is
// safe for concurrent use: submissions pipeline onto one socket and a
// background reader demultiplexes completions by request id.
type Conn struct {
	conn   net.Conn
	tenant string
	nextID atomic.Uint64

	wmu sync.Mutex
	bw  *bufio.Writer
	enc []byte // reusable head-encode scratch, guarded by wmu

	mu      sync.Mutex
	pending map[uint64]chan Result
	// idle holds result channels Do and Pipeline are finished with, for the
	// next submit: each is empty and open. A channel handed out by Submit
	// belongs to the caller and never comes back.
	idle   []chan Result
	err    error // set once the reader dies
	readWG sync.WaitGroup
}

// Dial connects, performs the Hello handshake and starts the reader.
// tenant becomes the connection's default tenant for admission control.
func Dial(addr, tenant string) (*Conn, error) {
	nc, fr, err := dialHello(addr, tenant)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		conn:    nc,
		tenant:  tenant,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]chan Result),
	}
	c.readWG.Add(1)
	go c.readLoop(fr)
	return c, nil
}

// dialHello connects to addr and performs the client side of the Hello
// handshake; the returned reader is positioned after the server's ack.
func dialHello(addr, tenant string) (net.Conn, *frameReader, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if _, err := nc.Write(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: tenant})); err != nil {
		nc.Close()
		return nil, nil, err
	}
	fr := newFrameReader(bufio.NewReaderSize(nc, 64<<10), DefaultMaxPayload)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fr.hello(); err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("serve: handshake failed: %v", err)
	}
	nc.SetReadDeadline(time.Time{})
	return nc, fr, nil
}

// Close tears the connection down; outstanding requests fail with
// ErrConnClosed.
func (c *Conn) Close() error {
	err := c.conn.Close()
	c.readWG.Wait()
	return err
}

func (c *Conn) readLoop(fr *frameReader) {
	defer c.readWG.Done()
	var rf RespFrame // outside the loop: head takes it as an interface, so it lives on the heap
	for {
		id, res, err := readResult(fr, &rf)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
}

// readResult reads the next frame and turns it into the Result for request
// id. rf is scratch.
func readResult(fr *frameReader, rf *RespFrame) (id uint64, res Result, err error) {
	typ, _, err := fr.next()
	if err != nil {
		return 0, res, err
	}
	switch typ {
	case FrameResp:
		n, err := fr.head(rf)
		if err != nil {
			return 0, res, err
		}
		// The value's one landing: off the connection into the slice the
		// caller gets.
		if n > 0 {
			rf.Value = make([]byte, n)
		}
		res.Resp = *rf
		return rf.ID, res, fr.bulk(rf.Value)
	case FrameBusy:
		bf, err := decodePayload(fr, DecodeBusy)
		return bf.ID, Result{Busy: true, Reason: bf.Reason, RetryNs: bf.RetryNs}, err
	case FramePong:
		id, err = decodePayload(fr, DecodePing)
		return id, Result{Resp: RespFrame{ID: id, OK: true}}, err
	}
	return 0, res, ErrTornFrame
}

// fail records why the reader stopped and fails every outstanding request.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch) // closed channel = connection failure
	}
	c.mu.Unlock()
}

// Submit pipelines one request without flushing; the returned channel
// yields exactly one Result (or closes on connection failure). A zero
// rf.ID is assigned; rf.Tenant defaults to the connection tenant on the
// server side.
func (c *Conn) Submit(rf *ReqFrame) (<-chan Result, error) {
	return c.submit(rf)
}

// register assigns ch — an idle channel when there is one — to id.
func (c *Conn) register(id uint64) (chan Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	var ch chan Result
	if n := len(c.idle); n > 0 {
		ch, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		ch = make(chan Result, 1)
	}
	c.pending[id] = ch
	return ch, nil
}

func (c *Conn) submit(rf *ReqFrame) (chan Result, error) {
	if rf.ID == 0 {
		rf.ID = c.nextID.Add(1)
	}
	ch, err := c.register(rf.ID)
	if err != nil {
		return nil, err
	}

	c.wmu.Lock()
	c.enc, err = writeReq(c.bw, c.enc, rf)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, rf.ID)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Flush pushes buffered submissions onto the wire.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// wait blocks for a submission's result.
func wait(ch <-chan Result) (Result, error) {
	res, ok := <-ch
	if !ok {
		return Result{}, ErrConnClosed
	}
	return res, nil
}

// recycle takes back channels whose one Result has been received.
func (c *Conn) recycle(chans ...chan Result) {
	c.mu.Lock()
	c.idle = append(c.idle, chans...)
	c.mu.Unlock()
}

// Do submits one request, flushes and waits for its result.
func (c *Conn) Do(rf *ReqFrame) (Result, error) {
	ch, err := c.submit(rf)
	if err != nil {
		return Result{}, err
	}
	if err := c.Flush(); err != nil {
		return Result{}, err
	}
	res, err := wait(ch)
	if err == nil {
		c.recycle(ch)
	}
	return res, err
}

// DoRetry is Do with busy-backoff: on a BUSY result it sleeps the server's
// retry hint (bounded to [50us, 10ms]) and resubmits, up to tries attempts.
// The final result is returned even if still busy.
func (c *Conn) DoRetry(rf *ReqFrame, tries int) (Result, error) {
	if tries < 1 {
		tries = 1
	}
	var res Result
	var err error
	for i := 0; i < tries; i++ {
		// Fresh id per attempt: the previous rejection consumed the old one.
		rf.ID = c.nextID.Add(1)
		res, err = c.Do(rf)
		if err != nil || !res.Busy {
			return res, err
		}
		backoff := time.Duration(res.RetryNs)
		if backoff < 50*time.Microsecond {
			backoff = 50 * time.Microsecond
		}
		if backoff > 10*time.Millisecond {
			backoff = 10 * time.Millisecond
		}
		time.Sleep(backoff)
	}
	return res, err
}

// Pipeline submits a window of requests back-to-back (one flush) and waits
// for every result, in order. This is the wire analogue of
// Client.SubmitBatch/WaitAll and what the load generator drives.
func (c *Conn) Pipeline(rfs []ReqFrame) ([]Result, error) {
	chans := windowPool.Get().(*[]chan Result)
	defer func() {
		clear(*chans)
		*chans = (*chans)[:0]
		windowPool.Put(chans)
	}()
	for i := range rfs {
		ch, err := c.submit(&rfs[i])
		if err != nil {
			return nil, err
		}
		*chans = append(*chans, ch)
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	out := make([]Result, len(rfs))
	for i, ch := range *chans {
		res, err := wait(ch)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	c.recycle(*chans...)
	return out, nil
}

// windowPool recycles the slice Pipeline keeps its window's channels in.
var windowPool = sync.Pool{New: func() any { return new([]chan Result) }}

// Ping round-trips a liveness probe.
func (c *Conn) Ping() error {
	id := c.nextID.Add(1)
	ch, err := c.register(id)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	c.enc = AppendPing(c.enc[:0], FramePing, id)
	_, err = c.bw.Write(c.enc)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	if _, err = wait(ch); err == nil {
		c.recycle(ch)
	}
	return err
}

// Tenant returns the connection's default tenant.
func (c *Conn) Tenant() string { return c.tenant }
