package pushdown

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"labstor/internal/core"
	"labstor/internal/spec"
)

// rec builds a test record: u32 tag at offset 0, u64 value at offset 4,
// then a text tail.
func rec(tag uint32, val uint64, tail string) []byte {
	b := make([]byte, 12, 12+len(tail))
	binary.LittleEndian.PutUint32(b[0:], tag)
	binary.LittleEndian.PutUint64(b[4:], val)
	return append(b, tail...)
}

func TestCompile(t *testing.T) {
	good := []string{
		"count",
		"filter where u32@0 == 7",
		"filter where u32@0 == 0x2a",
		"filter where substr \"error\"",
		"filter where u8@3 != 0 and substr \"x\" and u64@4 >= 100",
		"sum u64@4 where u32@0 < 3",
		"min u16@2",
		"max u8@0 where u32@0 > 1",
		"count where u32@0 <= 5",
	}
	for _, src := range good {
		if _, err := Compile(src); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
	}
	bad := []string{
		"",
		"frobnicate",
		"filter",                      // filter needs a where clause
		"sum",                         // missing operand
		"sum u32",                     // bad field
		"sum u9@0",                    // bad width
		"sum u32@-1",                  // negative offset
		"filter u32@0 == 7",           // missing where
		"filter where u32@0 ~= 7",     // bad comparator
		"filter where u32@0 == bacon", // bad number
		"filter where u32@0 == 1 and", // dangling and
		"filter where substr error",   // unquoted literal
		"filter where substr \"\"",    // empty literal
		"count where substr \"a",      // unterminated string
		"count extra",                 // trailing garbage
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestRefStability(t *testing.T) {
	p1, err := Compile("count where u32@0 == 7")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile("count where u32@0 == 7")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Ref != p2.Ref {
		t.Fatalf("same source, different refs: %s vs %s", p1.Ref, p2.Ref)
	}
	if !strings.HasPrefix(p1.Ref, RefPrefix) || len(p1.Ref) != len(RefPrefix)+16 {
		t.Fatalf("malformed ref %q", p1.Ref)
	}
	p3, err := Compile("count where u32@0 == 8")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Ref == p1.Ref {
		t.Fatal("different source, same ref")
	}
}

func TestEvalFilterAndAggregates(t *testing.T) {
	recs := [][]byte{
		rec(1, 10, "alpha"),
		rec(2, 20, "beta error"),
		rec(1, 30, "gamma"),
		rec(3, 40, "delta error"),
	}
	cases := []struct {
		src     string
		matched int64
		result  int64 // aggregate value (aggregates only)
	}{
		{"count", 4, 4},
		{"count where u32@0 == 1", 2, 2},
		{"count where substr \"error\"", 2, 2},
		{"count where u32@0 != 1 and substr \"error\"", 2, 2},
		{"sum u64@4 where u32@0 == 1", 2, 40},
		{"min u64@4", 4, 10},
		{"max u64@4 where substr \"error\"", 2, 40},
		{"sum u64@4 where u32@0 >= 2", 2, 60},
	}
	for _, tc := range cases {
		p, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.src, err)
		}
		ev := NewEval(p, EmitKV, 0, 0)
		for _, r := range recs {
			if _, err := ev.Record("k", r); err != nil {
				t.Fatalf("%q: %v", tc.src, err)
			}
		}
		if ev.Matched() != tc.matched {
			t.Errorf("%q: matched %d, want %d", tc.src, ev.Matched(), tc.matched)
		}
		var req core.Request
		ev.Finish(&req)
		if req.Result != tc.result {
			t.Errorf("%q: result %d, want %d", tc.src, req.Result, tc.result)
		}
	}
}

func TestEvalFilterEmitKV(t *testing.T) {
	p, err := Compile("filter where u32@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEval(p, EmitKV, 0, 0)
	want := map[string][]byte{"a": rec(1, 10, "one"), "c": rec(1, 30, "three")}
	for k, r := range map[string][]byte{"a": want["a"], "b": rec(2, 20, "two"), "c": want["c"]} {
		if _, err := ev.Record(k, r); err != nil {
			t.Fatal(err)
		}
	}
	var req core.Request
	ev.Finish(&req)
	if req.Result != int64(len(req.Value)) {
		t.Fatalf("Result %d != len(Value) %d", req.Result, len(req.Value))
	}
	got := map[string][]byte{}
	if err := DecodeKV(req.Value, func(key string, val []byte) error {
		got[key] = append([]byte(nil), val...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got["a"]) != string(want["a"]) || string(got["c"]) != string(want["c"]) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

func TestEvalChunkedRecords(t *testing.T) {
	// Field program across a chunk boundary: no assembly needed.
	p, err := Compile("sum u64@4 where u32@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	full := rec(1, 99, "tail")
	ev := NewEval(p, EmitKV, 0, 0)
	// Split mid-u64: offsets 4..12 straddle the 7-byte boundary.
	if ok, err := ev.Record("k", full[:7], full[7:]); err != nil || !ok {
		t.Fatalf("chunked record: ok=%v err=%v", ok, err)
	}
	var req core.Request
	ev.Finish(&req)
	if req.Result != 99 {
		t.Fatalf("chunked sum = %d, want 99", req.Result)
	}

	// Substring program needs contiguous assembly and still matches.
	p2, err := Compile("count where substr \"needle\"")
	if err != nil {
		t.Fatal(err)
	}
	full2 := rec(9, 9, "hay needle stack")
	ev2 := NewEval(p2, EmitKV, 0, 0)
	if ok, err := ev2.Record("k", full2[:15], full2[15:]); err != nil || !ok {
		t.Fatalf("assembled substr: ok=%v err=%v", ok, err)
	}
}

func TestEvalShortRecord(t *testing.T) {
	p, err := Compile("sum u64@4 where u32@0 == 1")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEval(p, EmitKV, 0, 0)
	// 2 bytes: too short for the u32@0 predicate — no match, no error.
	if ok, err := ev.Record("k", []byte{1, 0}); err != nil || ok {
		t.Fatalf("short record: ok=%v err=%v", ok, err)
	}
}

func TestEvalBudgets(t *testing.T) {
	p, err := Compile("count")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEval(p, EmitKV, 8, 0) // 8-byte scan budget
	if _, err := ev.Record("k", make([]byte, 16)); !errors.Is(err, ErrBudget) {
		t.Fatalf("byte budget: got %v, want ErrBudget", err)
	}

	ev2 := NewEval(p, EmitKV, 0, 2) // 2-step budget, 1 step per record
	for i := 0; i < 2; i++ {
		if _, err := ev2.Record("k", []byte{1}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if _, err := ev2.Record("k", []byte{1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("step budget: got %v, want ErrBudget", err)
	}
}

func TestRegistryAndFunc(t *testing.T) {
	reg := NewRegistry()
	p, err := reg.Register("hot", "count where u32@0 == 7")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Lookup("hot"); !ok || got != p {
		t.Fatal("lookup by name failed")
	}
	if got, ok := reg.Lookup(p.Ref); !ok || got != p {
		t.Fatal("lookup by ref failed")
	}
	if _, ok := reg.Lookup("pd:ffffffffffffffff"); ok {
		t.Fatal("lookup of unknown ref succeeded")
	}

	fp := reg.RegisterFunc("odd-len", func(r []byte) bool { return len(r)%2 == 1 })
	if !fp.needsContiguous() {
		t.Fatal("closure program must need contiguous records")
	}
	ev := NewEval(fp, EmitRaw, 0, 0)
	if ok, _ := ev.Record("", []byte("abc")); !ok {
		t.Fatal("closure should match odd-length record")
	}
	if ok, _ := ev.Record("", []byte("abcd")); ok {
		t.Fatal("closure should reject even-length record")
	}
	if len(reg.Programs()) != 2 {
		t.Fatalf("Programs() = %d entries, want 2", len(reg.Programs()))
	}
}

func TestPolicyAdmitAndClamp(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("errs", "count where substr \"error\""); err != nil {
		t.Fatal(err)
	}
	hot, err := reg.Register("hot-sum", "sum u64@4")
	if err != nil {
		t.Fatal(err)
	}

	pol := NewPolicy(reg, []string{"errs"}, Caps{MaxBytes: 1 << 20, MaxSteps: 100})
	pol.SetTenant("gold", TenantRule{Allow: []string{"*"}, Caps: Caps{MaxBytes: 2 << 20}})
	pol.SetTenant("pfx", TenantRule{Allow: []string{"hot-*"}})
	pol.SetTenant("locked", TenantRule{})

	// Default list covers "errs" only.
	if _, err := pol.Admit("", "errs"); err != nil {
		t.Fatalf("default allow: %v", err)
	}
	if _, err := pol.Admit("", "hot-sum"); !errors.Is(err, ErrDenied) {
		t.Fatalf("default deny: %v", err)
	}
	if _, err := pol.Admit("", "nope"); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("unknown program: %v", err)
	}
	// Tenant rules override the default list.
	if _, err := pol.Admit("gold", "hot-sum"); err != nil {
		t.Fatalf("gold wildcard: %v", err)
	}
	if _, err := pol.Admit("pfx", "hot-sum"); err != nil {
		t.Fatalf("prefix allow: %v", err)
	}
	if _, err := pol.Admit("pfx", "errs"); !errors.Is(err, ErrDenied) {
		t.Fatalf("prefix deny: %v", err)
	}
	// Empty tenant allow-list = deny all (secure default).
	if _, err := pol.Admit("locked", "errs"); !errors.Is(err, ErrDenied) {
		t.Fatalf("locked tenant: %v", err)
	}
	// Admit by content-hash ref too.
	if _, err := pol.Admit("gold", hot.Ref); err != nil {
		t.Fatalf("admit by ref: %v", err)
	}

	// Clamp: default caps apply, tighter caller budgets survive.
	req := core.NewRequest(core.OpScan)
	pol.Clamp("", req)
	if req.ProgMaxBytes != 1<<20 || req.ProgMaxSteps != 100 {
		t.Fatalf("default clamp: bytes=%d steps=%d", req.ProgMaxBytes, req.ProgMaxSteps)
	}
	req2 := core.NewRequest(core.OpScan)
	req2.ProgMaxBytes = 512
	pol.Clamp("", req2)
	if req2.ProgMaxBytes != 512 {
		t.Fatalf("tighter caller budget overwritten: %d", req2.ProgMaxBytes)
	}
	// Tenant caps override defaults where set.
	req3 := core.NewRequest(core.OpScan)
	pol.Clamp("gold", req3)
	if req3.ProgMaxBytes != 2<<20 || req3.ProgMaxSteps != 100 {
		t.Fatalf("tenant clamp: bytes=%d steps=%d", req3.ProgMaxBytes, req3.ProgMaxSteps)
	}
}

func TestPolicyFromSpec(t *testing.T) {
	ps := spec.PushdownSpec{
		Programs:  map[string]string{"errs": "count where substr \"error\""},
		Allow:     []string{"errs"},
		MaxScanMB: 4,
		MaxSteps:  1000,
		Tenants: []spec.PushdownTenantSpec{
			{Name: "gold", Allow: []string{"*"}, MaxScanMB: 8},
		},
	}
	pol, err := PolicyFromSpec(ps, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pol.Admit("", "errs"); err != nil {
		t.Fatalf("spec program not admitted: %v", err)
	}
	req := core.NewRequest(core.OpScan)
	pol.Clamp("gold", req)
	if req.ProgMaxBytes != 8<<20 {
		t.Fatalf("spec tenant caps: %d", req.ProgMaxBytes)
	}

	bad := spec.PushdownSpec{Programs: map[string]string{"x": "not a program"}}
	if _, err := PolicyFromSpec(bad, NewRegistry()); err == nil {
		t.Fatal("bad program source accepted")
	}
}

func TestDecodeKVTorn(t *testing.T) {
	p, _ := Compile("filter where u8@0 == 1")
	ev := NewEval(p, EmitKV, 0, 0)
	ev.Record("key", []byte{1, 2, 3})
	var req core.Request
	ev.Finish(&req)
	for cut := 1; cut < len(req.Value); cut++ {
		// Truncations must error or decode fewer records, never panic.
		DecodeKV(req.Value[:cut], func(string, []byte) error { return nil })
	}
	if err := DecodeKV([]byte{0xff}, func(string, []byte) error { return nil }); err == nil {
		t.Fatal("torn buffer decoded cleanly")
	}
}

// FuzzDecodeKV feeds DecodeKV arbitrary bytes, which must never panic, and
// round-trips records cut from the same bytes through an EmitKV filter:
// what the evaluator emits, from whole or split records, must decode back
// to the same keys and values in the same order.
func FuzzDecodeKV(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff}, uint8(1))
	f.Add([]byte("\x03key\x05value"), uint8(2))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(3))
	f.Add([]byte("\x01a\x00\x02bc\x0fa longer value."), uint8(7))
	all := &Program{agg: aggFilter} // no predicate: every record matches
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		DecodeKV(data, func(string, []byte) error { return nil })

		// Records: a length byte and that many key bytes, then the same for
		// the value; the value is handed over in two chunks cut at split.
		type kv struct {
			key string
			val []byte
		}
		var want []kv
		ev := NewEval(all, EmitKV, 0, 0)
		field := func(rest []byte) ([]byte, []byte) {
			if len(rest) == 0 {
				return nil, nil
			}
			n := min(int(rest[0]), len(rest)-1)
			return rest[1 : 1+n], rest[1+n:]
		}
		for rest := data; len(rest) > 0; {
			var key, val []byte
			key, rest = field(rest)
			val, rest = field(rest)
			cut := int(split) % (len(val) + 1)
			if _, err := ev.Record(string(key), val[:cut], val[cut:]); err != nil {
				t.Fatal(err)
			}
			want = append(want, kv{string(key), val})
		}
		var req core.Request
		ev.Finish(&req)
		i := 0
		err := DecodeKV(req.Value, func(key string, val []byte) error {
			if i >= len(want) || key != want[i].key || string(val) != string(want[i].val) {
				return fmt.Errorf("record %d decodes as %q=%q", i, key, val)
			}
			i++
			return nil
		})
		if err != nil || i != len(want) {
			t.Fatalf("%v after %d of %d records", err, i, len(want))
		}
	})
}

// TestFieldOffsetNearMaxInt64: a field offset near MaxInt64 lies past the
// end of every record. Adding the width to it must not wrap the bounds
// check negative and slice a record out of range.
func TestFieldOffsetNearMaxInt64(t *testing.T) {
	r := rec(1, 2, "tail")
	for _, src := range []string{
		"count where u64@9223372036854775807 == 1",
		"sum u32@9223372036854775806",
	} {
		p, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range [][][]byte{{r}, {r[:5], r[5:]}} {
			ev := NewEval(p, EmitKV, 0, 0)
			if _, err := ev.Record("k", chunks...); err != nil {
				t.Fatal(err)
			}
			var req core.Request
			ev.Finish(&req)
			if req.Result != 0 {
				t.Fatalf("%q over %d chunks: result %d, want 0", src, len(chunks), req.Result)
			}
		}
	}
}

// FuzzCompileEval compiles arbitrary source and runs every program that
// compiles over records cut from the input, each record once whole and once
// split into chunks at arbitrary points (empty chunks included). Neither
// run may panic, and the two must agree record by record on match and
// error, and at the end on the aggregate or the emitted matches.
func FuzzCompileEval(f *testing.F) {
	f.Add("count where u64@9223372036854775807 == 1", []byte("\x10aaaaaaaabbbbbbbb"), uint8(3))
	f.Add("sum u32@9223372036854775806", []byte("\x08\x01\x00\x00\x00\x02\x00\x00\x00"), uint8(1))
	f.Add("filter where u32@0 == 7 and substr \"x\"", []byte("\x06\x07\x00\x00\x00x!\x05\x07\x00\x00\x00y"), uint8(9))
	f.Add("max u16@1 where u8@0 >= 2", []byte("\x03\x02\x05\x00\x03\x03\x09\x01\x01\x01"), uint8(0))
	f.Add("min u64@4 where u8@0 != 0", rec(1, 1<<40, "tail"), uint8(200))
	f.Fuzz(func(t *testing.T, src string, data []byte, cut uint8) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		whole := NewEval(p, EmitKV, 1<<40, 1<<40)
		split := NewEval(p, EmitKV, 1<<40, 1<<40)
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]), len(rest)-1)
			r := rest[1 : 1+n]
			rest = rest[1+n:]
			// Up to three chunks, cut at points drawn from cut.
			a := int(cut) % (len(r) + 1)
			b := a + int(cut/3)%(len(r)-a+1)
			okW, errW := whole.Record("k", r)
			okS, errS := split.Record("k", r[:a], r[a:b], r[b:])
			if okW != okS || (errW == nil) != (errS == nil) {
				t.Fatalf("%q over %x cut at %d,%d: whole %v/%v, split %v/%v", src, r, a, b, okW, errW, okS, errS)
			}
		}
		var rw, rs core.Request
		whole.Finish(&rw)
		split.Finish(&rs)
		if rw.Result != rs.Result || string(rw.Value) != string(rs.Value) {
			t.Fatalf("%q: whole gives %d %x, split gives %d %x", src, rw.Result, rw.Value, rs.Result, rs.Value)
		}
	})
}
