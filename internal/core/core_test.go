package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"labstor/internal/vtime"
)

// --- Request ---------------------------------------------------------------------

func TestRequestChargeAndTrace(t *testing.T) {
	r := NewRequest(OpWrite)
	r.Trace = true
	r.Charge("a", 100)
	r.Charge("b", 50)
	if r.Clock != 150 || r.CPUTime != 150 {
		t.Fatalf("clock=%d cpu=%d", r.Clock, r.CPUTime)
	}
	if len(r.Stages) != 2 || r.Stages[0].Stage != "a" {
		t.Fatalf("stages %v", r.Stages)
	}
	r.ChargeIO("io", 500)
	if r.Clock != 500 {
		t.Fatalf("ChargeIO clock %d", r.Clock)
	}
	if r.CPUTime != 150 {
		t.Fatalf("ChargeIO must not add CPU time: %d", r.CPUTime)
	}
	// Past completion does not move the clock back.
	r.ChargeIO("io", 10)
	if r.Clock != 500 {
		t.Fatal("ChargeIO moved clock backwards")
	}
	if r.Latency() != 500 {
		t.Fatalf("latency %v", r.Latency())
	}
}

func TestRequestChildAbsorb(t *testing.T) {
	p := NewRequest(OpWrite)
	p.Trace = true
	p.StackID = 3
	p.Clock = 100
	p.Cred = Cred{UID: 7}
	c := p.Child(OpBlockWrite)
	if c.StackID != 3 || c.Clock != 100 || c.Cred.UID != 7 || !c.Trace {
		t.Fatal("child inheritance")
	}
	if c.ID == p.ID {
		t.Fatal("child must get a fresh ID")
	}
	c.Charge("io_sub", 25)
	c.ChargeIO("io", 400)
	p.Absorb(c)
	if p.Clock != 400 {
		t.Fatalf("absorb clock %d", p.Clock)
	}
	if p.CPUTime != 25 {
		t.Fatalf("absorb cpu %d", p.CPUTime)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("absorb stages %v", p.Stages)
	}
	// Errors propagate.
	c2 := p.Child(OpBlockWrite)
	c2.Err = errors.New("boom")
	p.Absorb(c2)
	if p.Err == nil {
		t.Fatal("child error not absorbed")
	}
}

func TestRequestDoneWord(t *testing.T) {
	r := NewRequest(OpNop)
	if r.Done() {
		t.Fatal("done before MarkDone")
	}
	r.MarkDone()
	if !r.Done() {
		t.Fatal("not done after MarkDone")
	}
}

// TestHandshakeCompletionWord walks the completion word's transitions: the
// completer signals the waker only when the waiter had parked, never blocks
// on a full wake channel, and Park refuses once the word reads done.
func TestHandshakeCompletionWord(t *testing.T) {
	wake := make(chan struct{}, 1)

	r := NewRequest(OpNop)
	r.SetWaker(wake)
	r.MarkDone()
	if len(wake) != 0 {
		t.Fatal("MarkDone signaled a waiter that never parked")
	}
	if r.Park() {
		t.Fatal("Park succeeded on a completed request")
	}

	r = NewRequest(OpNop)
	r.SetWaker(wake)
	if !r.Park() || !r.Park() {
		t.Fatal("Park failed on a pending request (it must also hold when re-parking)")
	}
	if r.Done() {
		t.Fatal("parked request reads done")
	}
	r.MarkDone()
	if len(wake) != 1 || !r.Done() {
		t.Fatalf("MarkDone on a parked request: %d tokens, done=%v", len(wake), r.Done())
	}

	// The token above is still in the channel: a second parked completion
	// must not block on it.
	r = NewRequest(OpNop)
	r.SetWaker(wake)
	r.Park()
	r.MarkDone()
	if !r.Done() {
		t.Fatal("MarkDone with a full wake channel did not complete")
	}
	<-wake

	// Waiter and completer racing: whichever side wins, the waiter ends up
	// seeing done, and it blocks only when a token is coming.
	for i := 0; i < 2000; i++ {
		r := AcquireRequest(OpNop)
		r.SetWaker(wake)
		go func() {
			r.Result = int64(r.ID)
			r.MarkDone()
		}()
		for r.Park() {
			<-wake
		}
		if !r.Done() || r.Result != int64(r.ID) {
			t.Fatalf("iteration %d: done=%v result=%d id=%d", i, r.Done(), r.Result, r.ID)
		}
		select {
		case <-wake: // stale token from a completion that raced Park
		default:
		}
		r.Release()
	}
}

func TestOpClassification(t *testing.T) {
	if !OpCreate.IsMetadata() || OpWrite.IsMetadata() {
		t.Fatal("IsMetadata")
	}
	if !OpWrite.IsWrite() || !OpPut.IsWrite() || OpRead.IsWrite() {
		t.Fatal("IsWrite")
	}
	if OpWrite.String() != "write" || Op(200).String() == "" {
		t.Fatal("op strings")
	}
	if !strings.Contains(NewRequest(OpRead).String(), "read") {
		t.Fatal("request string")
	}
}

// --- Registry --------------------------------------------------------------------

// fake module for registry/stack tests.
type fakeMod struct {
	Base
	name     string
	consumes API
	produces API
	state    int
	repaired bool
	process  func(e *Exec, r *Request) error
}

func (f *fakeMod) Info() ModuleInfo {
	c, p := f.consumes, f.produces
	if c == "" {
		c = APIAny
	}
	if p == "" {
		p = APIAny
	}
	return ModuleInfo{Type: f.name, Version: "1", Consumes: c, Produces: p}
}

func (f *fakeMod) Process(e *Exec, r *Request) error {
	if f.process != nil {
		return f.process(e, r)
	}
	if e.HasNext(r) {
		return e.Next(r)
	}
	return nil
}

func (f *fakeMod) StateUpdate(prev Module) error {
	if old, ok := prev.(*fakeMod); ok {
		f.state = old.state
	}
	return nil
}

func (f *fakeMod) StateRepair() error { f.repaired = true; return nil }

func (f *fakeMod) EstProcessingTime(op Op, size int) vtime.Duration { return 100 }

func init() {
	RegisterType("test.fake", func() Module { return &fakeMod{name: "test.fake"} })
}

func TestRegistryInstantiateOnce(t *testing.T) {
	reg := NewRegistry()
	env := NewEnv(nil)
	m1, err := reg.Instantiate("u1", "test.fake", Config{}, env)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.Instantiate("u1", "other.type.ignored", Config{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same UUID must return the same instance")
	}
	if _, err := reg.Get("u2"); err == nil {
		t.Fatal("Get of an unregistered UUID")
	}
	if len(reg.UUIDs()) != 1 {
		t.Fatal("UUIDs")
	}
}

func TestRegistryUnknownType(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Instantiate("x", "no.such.type", Config{}, NewEnv(nil)); err == nil {
		t.Fatal("unknown type instantiated")
	}
	if _, err := NewModule("no.such.type"); err == nil {
		t.Fatal("NewModule of unknown type")
	}
}

func TestRegistrySwapTransfersState(t *testing.T) {
	reg := NewRegistry()
	old := &fakeMod{name: "test.fake", state: 42}
	reg.Register("u", old)
	next := &fakeMod{name: "test.fake"}
	if err := reg.Swap("u", next); err != nil {
		t.Fatal(err)
	}
	if next.state != 42 {
		t.Fatal("StateUpdate not invoked")
	}
	if reg.Generation("u") != 1 {
		t.Fatalf("generation %d", reg.Generation("u"))
	}
	got, _ := reg.Get("u")
	if got != Module(next) {
		t.Fatal("swap did not replace instance")
	}
	if err := reg.Swap("missing", next); err == nil {
		t.Fatal("swap of missing UUID succeeded")
	}
}

func TestRegistryRepairAll(t *testing.T) {
	reg := NewRegistry()
	a := &fakeMod{name: "test.fake"}
	b := &fakeMod{name: "test.fake"}
	reg.Register("a", a)
	reg.Register("b", b)
	if err := reg.RepairAll(); err != nil {
		t.Fatal(err)
	}
	if !a.repaired || !b.repaired {
		t.Fatal("not all modules repaired")
	}
	reg.Remove("a")
	if _, err := reg.Get("a"); err == nil {
		t.Fatal("remove")
	}
}

// --- Stack -----------------------------------------------------------------------

func chainVertices(uuids ...string) []Vertex {
	vs := make([]Vertex, len(uuids))
	for i, u := range uuids {
		vs[i] = Vertex{UUID: u, Type: "test.fake"}
		if i+1 < len(uuids) {
			vs[i].Outputs = []string{uuids[i+1]}
		}
	}
	return vs
}

func TestStackChainAndValidate(t *testing.T) {
	s := NewStack("fs::/x", Rules{}, chainVertices("a", "b", "c"))
	if s.Entry() != "a" || s.Len() != 3 {
		t.Fatal("entry/len")
	}
	if err := s.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Outputs("a"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("outputs %v", got)
	}
	if _, ok := s.Vertex("zzz"); ok {
		t.Fatal("phantom vertex")
	}
}

func TestStackValidateErrors(t *testing.T) {
	if err := NewStack("m", Rules{}, nil).Validate(nil); err == nil {
		t.Fatal("empty stack validated")
	}
	// Unknown output.
	bad := NewStack("m", Rules{}, []Vertex{{UUID: "a", Outputs: []string{"ghost"}}})
	if err := bad.Validate(nil); err == nil {
		t.Fatal("dangling output validated")
	}
	// Cycle.
	cyc := NewStack("m", Rules{}, []Vertex{
		{UUID: "a", Outputs: []string{"b"}},
		{UUID: "b", Outputs: []string{"a"}},
	})
	if err := cyc.Validate(nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle not detected: %v", err)
	}
	// Depth bound.
	deep := NewStack("m", Rules{MaxDepth: 2}, chainVertices("a", "b", "c"))
	if err := deep.Validate(nil); err == nil {
		t.Fatal("over-depth stack validated")
	}
	// Stack references are allowed.
	ref := NewStack("m", Rules{}, []Vertex{{UUID: "a", Outputs: []string{"stack:other"}}})
	if err := ref.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestStackValidateInterfaceCompatibility(t *testing.T) {
	reg := NewRegistry()
	reg.Register("posix", &fakeMod{name: "p", consumes: APIPosix, produces: APIBlock})
	reg.Register("kv", &fakeMod{name: "k", consumes: APIKV, produces: APIBlock})
	reg.Register("blk", &fakeMod{name: "b", consumes: APIBlock, produces: APIDriver})
	ok := NewStack("m", Rules{}, []Vertex{
		{UUID: "posix", Outputs: []string{"blk"}},
		{UUID: "blk"},
	})
	if err := ok.Validate(reg); err != nil {
		t.Fatal(err)
	}
	bad := NewStack("m", Rules{}, []Vertex{
		{UUID: "posix", Outputs: []string{"kv"}},
		{UUID: "kv"},
	})
	if err := bad.Validate(reg); err == nil {
		t.Fatal("posix->kv composition validated")
	}
}

func TestStackInsertAfterAndRemove(t *testing.T) {
	s := NewStack("m", Rules{}, chainVertices("a", "b"))
	insert := func(after string, v Vertex) error { return s.Modify(nil, after, &v, "") }
	if err := insert("a", Vertex{UUID: "mid", Type: "test.fake"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Outputs("a"); got[0] != "mid" {
		t.Fatalf("a outputs %v", got)
	}
	if got := s.Outputs("mid"); got[0] != "b" {
		t.Fatalf("mid outputs %v", got)
	}
	if err := insert("a", Vertex{UUID: "mid"}); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := insert("ghost", Vertex{UUID: "x"}); err == nil {
		t.Fatal("insert after missing vertex succeeded")
	}
	// An edit that fails validation publishes nothing.
	before := s.Plan()
	if err := insert("b", Vertex{UUID: "x", Outputs: []string{"nowhere"}}); err == nil {
		t.Fatal("insert with a dangling output succeeded")
	}
	if s.Plan() != before {
		t.Fatal("an edit that failed validation was published")
	}
	// Prepend.
	if err := insert("", Vertex{UUID: "front", Type: "test.fake"}); err != nil {
		t.Fatal(err)
	}
	if s.Entry() != "front" {
		t.Fatalf("entry %s", s.Entry())
	}
	// Remove splices.
	if err := s.Modify(nil, "", nil, "mid"); err != nil {
		t.Fatal(err)
	}
	if got := s.Outputs("a"); got[0] != "b" {
		t.Fatalf("splice failed: %v", got)
	}
	if err := s.Modify(nil, "", nil, "ghost"); err == nil {
		t.Fatal("remove of missing vertex succeeded")
	}
	// Insert and remove in one edit publish once.
	if err := s.Modify(nil, "a", &Vertex{UUID: "mid2"}, "front"); err != nil {
		t.Fatal(err)
	}
	if s.Entry() != "a" || s.Outputs("a")[0] != "mid2" {
		t.Fatalf("combined edit: %+v", s.Vertices())
	}
	if err := s.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

// --- Namespace -------------------------------------------------------------------

func TestNamespaceMountResolve(t *testing.T) {
	ns := NewNamespace()
	a := NewStack("fs::/a", Rules{}, chainVertices("x"))
	ab := NewStack("fs::/a/b", Rules{}, chainVertices("y"))
	if err := ns.Mount(a); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount(ab); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount(NewStack("fs::/a", Rules{}, chainVertices("z"))); err == nil {
		t.Fatal("double mount succeeded")
	}
	// Longest-prefix resolution.
	s, rem, ok := ns.Resolve("fs::/a/b/c/file.txt")
	if !ok || s != ab || rem != "c/file.txt" {
		t.Fatalf("resolve: %v %q %v", s, rem, ok)
	}
	s, rem, ok = ns.Resolve("fs::/a/other.txt")
	if !ok || s != a || rem != "other.txt" {
		t.Fatalf("resolve parent: %v %q %v", s, rem, ok)
	}
	if _, _, ok := ns.Resolve("kv::/elsewhere"); ok {
		t.Fatal("resolved unmounted path")
	}
	// Exact lookup and by-ID.
	if got, ok := ns.Lookup("fs::/a/b"); !ok || got != ab {
		t.Fatal("lookup")
	}
	if got, ok := ns.ByID(a.ID); !ok || got != a {
		t.Fatal("byID")
	}
	if len(ns.Mounts()) != 2 || len(ns.Stacks()) != 2 {
		t.Fatal("listing")
	}
	if err := ns.Unmount("fs::/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Unmount("fs::/a/b"); err == nil {
		t.Fatal("double unmount succeeded")
	}
}

func TestNamespaceRootMount(t *testing.T) {
	ns := NewNamespace()
	root := NewStack("/", Rules{}, chainVertices("r"))
	if err := ns.Mount(root); err != nil {
		t.Fatal(err)
	}
	s, rem, ok := ns.Resolve("/any/path")
	if !ok || s != root || rem != "any/path" {
		t.Fatalf("root resolve: %q %v", rem, ok)
	}
}

func TestCleanMount(t *testing.T) {
	cases := []struct {
		in, want string
		clean    bool // already clean: returned as is, no allocation
	}{
		{"kv::/a", "kv::/a", true},
		{"/", "/", true},
		{"/x/y", "/x/y", true},
		{"a", "a", true},
		{"kv::/a//b/", "kv::/a/b", false},
		{"fs::", "fs::/", false},
		{"", "/", false},
		{"a/", "a", false},
		{"fs::/a/", "fs::/a", false},
		{"fs::/a//b", "fs::/a/b", false},
		{"/x/", "/x", false},
		{"kv::/k//v//", "kv::/k/v", false},
		{"//", "/", false},
	}
	for _, c := range cases {
		if got := CleanMount(c.in); got != c.want {
			t.Errorf("CleanMount(%q) = %q, want %q", c.in, got, c.want)
		}
		if !c.clean {
			continue
		}
		in := c.in
		if n := testing.AllocsPerRun(100, func() { _ = CleanMount(in) }); n != 0 {
			t.Errorf("CleanMount(%q) allocates %v per call on a clean path", in, n)
		}
	}
}

func TestCleanMountQuickIdempotent(t *testing.T) {
	f := func(s string) bool { return CleanMount(CleanMount(s)) == CleanMount(s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- Exec ------------------------------------------------------------------------

func TestExecChainWalk(t *testing.T) {
	reg := NewRegistry()
	var order []string
	mk := func(name string) *fakeMod {
		return &fakeMod{name: name, process: func(e *Exec, r *Request) error {
			order = append(order, name)
			r.Charge(name, 10)
			if e.HasNext(r) {
				return e.Next(r)
			}
			return nil
		}}
	}
	reg.Register("a", mk("a"))
	reg.Register("b", mk("b"))
	reg.Register("c", mk("c"))
	st := NewStack("m", Rules{}, chainVertices("a", "b", "c"))
	st.ID = 1
	e := NewExec(reg, nil, nil, 0)
	req := NewRequest(OpWrite)
	if err := e.Submit(st, req); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Fatalf("walk order %v", order)
	}
	// 3 module charges + 3 registry lookups.
	if req.CPUTime != 30+3*e.Model.ModLookup {
		t.Fatalf("cpu %v", req.CPUTime)
	}
}

func TestExecNextTo(t *testing.T) {
	reg := NewRegistry()
	var hit string
	reg.Register("fan", &fakeMod{name: "fan", process: func(e *Exec, r *Request) error {
		return e.NextTo(r, "right")
	}})
	reg.Register("left", &fakeMod{name: "left", process: func(e *Exec, r *Request) error {
		hit = "left"
		return nil
	}})
	reg.Register("right", &fakeMod{name: "right", process: func(e *Exec, r *Request) error {
		hit = "right"
		return nil
	}})
	st := NewStack("m", Rules{}, []Vertex{
		{UUID: "fan", Outputs: []string{"left", "right"}},
		{UUID: "left"},
		{UUID: "right"},
	})
	e := NewExec(reg, nil, nil, 0)
	if err := e.Submit(st, NewRequest(OpNop)); err != nil {
		t.Fatal(err)
	}
	if hit != "right" {
		t.Fatalf("NextTo hit %q", hit)
	}
	// NextTo to a non-output fails.
	reg.Register("fan2", &fakeMod{name: "fan2", process: func(e *Exec, r *Request) error {
		return e.NextTo(r, "nowhere")
	}})
	st2 := NewStack("m2", Rules{}, []Vertex{{UUID: "fan2", Outputs: []string{"left"}}, {UUID: "left"}})
	if err := e.Submit(st2, NewRequest(OpNop)); err == nil {
		t.Fatal("NextTo to non-output succeeded")
	}
}

func TestExecStackReference(t *testing.T) {
	reg := NewRegistry()
	ns := NewNamespace()
	var hits []string
	reg.Register("front", &fakeMod{name: "front", process: func(e *Exec, r *Request) error {
		hits = append(hits, "front")
		return e.Next(r)
	}})
	reg.Register("backend", &fakeMod{name: "backend", process: func(e *Exec, r *Request) error {
		hits = append(hits, "backend")
		return nil
	}})
	back := NewStack("fs::/backend", Rules{}, chainVertices("backend"))
	if err := ns.Mount(back); err != nil {
		t.Fatal(err)
	}
	front := NewStack("fs::/front", Rules{}, []Vertex{
		{UUID: "front", Outputs: []string{"stack:fs::/backend"}},
	})
	if err := ns.Mount(front); err != nil {
		t.Fatal(err)
	}
	e := NewExec(reg, ns, nil, 0)
	req := NewRequest(OpNop)
	if err := e.Submit(front, req); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[1] != "backend" {
		t.Fatalf("stack reference walk: %v", hits)
	}
	if req.StackID != front.ID {
		t.Fatal("stack ID not restored after cross-stack forward")
	}
}

// TestExecGate: a top-level Submit into a gated stack waits until the gate
// closes, a walk names its plan in the walker's slot until it ends, and a
// nested walk into a gated stack neither waits nor takes the slot.
func TestExecGate(t *testing.T) {
	reg := NewRegistry()
	ns := NewNamespace()
	var during []*Plan
	reg.Register("front", &fakeMod{name: "front", process: func(e *Exec, r *Request) error {
		during = append(during, e.Walking())
		return e.Next(r)
	}})
	reg.Register("back", &fakeMod{name: "back", process: func(e *Exec, r *Request) error {
		during = append(during, e.Walking())
		return nil
	}})
	back := NewStack("fs::/back", Rules{}, chainVertices("back"))
	front := NewStack("fs::/front", Rules{}, []Vertex{{UUID: "front", Outputs: []string{"stack:fs::/back"}}})
	for _, s := range []*Stack{back, front} {
		if err := ns.Mount(s); err != nil {
			t.Fatal(err)
		}
	}
	e := NewExec(reg, ns, nil, 0)

	gate := make(chan struct{})
	ungate := back.Gate(gate)
	plan := front.Plan()
	if err := e.Submit(front, NewRequest(OpNop)); err != nil {
		t.Fatalf("nested walk into a gated stack: %v", err)
	}
	if len(during) != 2 || during[0] != plan || during[1] != plan || e.Walking() != nil {
		t.Fatalf("slot during the walk %v (want the top-level plan %p twice), after %v", during, plan, e.Walking())
	}

	walked := make(chan error, 1)
	go func() { walked <- e.Submit(back, NewRequest(OpNop)) }()
	select {
	case err := <-walked:
		t.Fatalf("Submit into a gated stack returned (%v) before the gate closed", err)
	case <-time.After(20 * time.Millisecond):
	}
	ungate()
	close(gate)
	if err := <-walked; err != nil {
		t.Fatal(err)
	}
}

func TestExecSpawnNext(t *testing.T) {
	reg := NewRegistry()
	reg.Register("parent", &fakeMod{name: "parent", process: func(e *Exec, r *Request) error {
		child := r.Child(OpBlockWrite)
		return e.SpawnNext(r, child)
	}})
	reg.Register("sink", &fakeMod{name: "sink", process: func(e *Exec, r *Request) error {
		r.Charge("sink", 77)
		return nil
	}})
	st := NewStack("m", Rules{}, chainVertices("parent", "sink"))
	e := NewExec(reg, nil, nil, 0)
	req := NewRequest(OpWrite)
	if err := e.Submit(st, req); err != nil {
		t.Fatal(err)
	}
	if req.CPUTime < 77 {
		t.Fatalf("child cost not absorbed: %v", req.CPUTime)
	}
}

func TestExecTerminalWithoutOutputs(t *testing.T) {
	reg := NewRegistry()
	reg.Register("bad", &fakeMod{name: "bad", process: func(e *Exec, r *Request) error {
		return e.Next(r) // no outputs: must error
	}})
	st := NewStack("m", Rules{}, chainVertices("bad"))
	e := NewExec(reg, nil, nil, 0)
	if err := e.Submit(st, NewRequest(OpNop)); err == nil {
		t.Fatal("Next from terminal vertex succeeded")
	}
}

// --- Env --------------------------------------------------------------------------

func TestEnvDevices(t *testing.T) {
	env := NewEnv(nil)
	if _, err := env.Device("missing"); err == nil {
		t.Fatal("missing device found")
	}
	if env.Model == nil || env.Segments == nil {
		t.Fatal("env defaults")
	}
}

func TestConfigAttr(t *testing.T) {
	c := Config{Attrs: map[string]string{"k": "v"}}
	if c.Attr("k", "d") != "v" || c.Attr("x", "d") != "d" {
		t.Fatal("attr lookup")
	}
}
