package core

import "testing"

// BenchmarkExecWalk walks one request through a 4-vertex pass-through
// chain with Exec.Submit: the per-hop cost of the DAG walk (stack and
// registry reads, the modeled registry charge, the module call) without
// any module work. "one" is a single walker; "parallel" runs a walker per
// GOMAXPROCS on the same stack and registry, so shared state the walk
// writes (lock words, counters) shows up as a higher ns/op at -cpu 2.
func BenchmarkExecWalk(b *testing.B) {
	reg := NewRegistry()
	uuids := []string{"w0", "w1", "w2", "w3"}
	for _, u := range uuids {
		reg.Register(u, &fakeMod{name: u})
	}
	st := NewStack("bench::/walk", Rules{}, chainVertices(uuids...))
	st.ID = 1
	walk := func(e *Exec, req *Request) {
		if err := e.Submit(st, req); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("one", func(b *testing.B) {
		e, req := NewExec(reg, nil, nil, 0), NewRequest(OpNop)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			walk(e, req)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			e, req := NewExec(reg, nil, nil, 0), NewRequest(OpNop)
			for pb.Next() {
				walk(e, req)
			}
		})
	})
}
