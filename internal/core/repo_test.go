package core

import "testing"

type repoMod struct{ Base }

func (r *repoMod) Info() ModuleInfo                    { return ModuleInfo{Type: "repo.mod"} }
func (r *repoMod) Process(e *Exec, req *Request) error { return nil }

func repoWith(name string, owner int, trusted bool, types ...string) *Repo {
	m := make(map[string]Factory, len(types))
	for _, t := range types {
		m[t] = func() Module { return &repoMod{} }
	}
	return NewRepo(name, owner, trusted, m)
}

func TestRepoMountRegistersTypes(t *testing.T) {
	rm := NewRepoManager(0)
	if err := rm.Mount(repoWith("r1", 1000, false, "x.alpha", "x.beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewModule("x.alpha"); err != nil {
		t.Fatalf("mounted type not instantiable: %v", err)
	}
	if got := rm.Repos(); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("repos %v", got)
	}
	r, ok := rm.Lookup("r1")
	if !ok || len(r.Types()) != 2 {
		t.Fatal("lookup")
	}
	if err := rm.Unmount("r1", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := NewModule("x.alpha"); err == nil {
		t.Fatal("unmounted type still instantiable")
	}
}

func TestRepoQuota(t *testing.T) {
	rm := NewRepoManager(2)
	if err := rm.Mount(repoWith("a", 7, false, "q.a")); err != nil {
		t.Fatal(err)
	}
	if err := rm.Mount(repoWith("b", 7, false, "q.b")); err != nil {
		t.Fatal(err)
	}
	if err := rm.Mount(repoWith("c", 7, false, "q.c")); err == nil {
		t.Fatal("quota not enforced")
	}
	// Another user is unaffected.
	if err := rm.Mount(repoWith("d", 8, false, "q.d")); err != nil {
		t.Fatal(err)
	}
	// Unmounting frees quota.
	rm.Unmount("a", 7)
	if err := rm.Mount(repoWith("c", 7, false, "q.c")); err != nil {
		t.Fatalf("quota not released: %v", err)
	}
	for _, n := range []string{"b", "c", "d"} {
		rm.Unmount(n, 0)
	}
}

func TestRepoDuplicateAndOwnership(t *testing.T) {
	rm := NewRepoManager(0)
	if err := rm.Mount(repoWith("dup", 5, false, "d.x")); err != nil {
		t.Fatal(err)
	}
	if err := rm.Mount(repoWith("dup", 5, false, "d.y")); err == nil {
		t.Fatal("duplicate mount succeeded")
	}
	if err := rm.Unmount("dup", 6); err == nil {
		t.Fatal("non-owner unmounted")
	}
	if err := rm.Unmount("dup", 0); err != nil { // root may
		t.Fatal(err)
	}
	if err := rm.Unmount("dup", 5); err == nil {
		t.Fatal("double unmount succeeded")
	}
}

func TestRepoSharedTypesSurviveUnmount(t *testing.T) {
	rm := NewRepoManager(0)
	rm.Mount(repoWith("one", 1, false, "shared.t"))
	rm.Mount(repoWith("two", 2, false, "shared.t"))
	rm.Unmount("one", 1)
	if _, err := NewModule("shared.t"); err != nil {
		t.Fatal("type deregistered while still provided")
	}
	rm.Unmount("two", 2)
	if _, err := NewModule("shared.t"); err == nil {
		t.Fatal("type survived both unmounts")
	}
}

func TestRepoTrust(t *testing.T) {
	rm := NewRepoManager(0, 1000)
	// Trusted owner keeps the flag.
	rm.Mount(repoWith("tr", 1000, true, "t.a"))
	if r, _ := rm.Lookup("tr"); !r.Trusted {
		t.Fatal("trusted owner's repo downgraded")
	}
	// Untrusted owner is downgraded.
	rm.Mount(repoWith("un", 4444, true, "t.b"))
	if r, _ := rm.Lookup("un"); r.Trusted {
		t.Fatal("untrusted owner kept trust")
	}
	if !rm.TrustedType("t.a") {
		t.Fatal("trusted type misreported")
	}
	if rm.TrustedType("t.b") {
		t.Fatal("untrusted type misreported")
	}
	// Built-ins are trusted.
	if !rm.TrustedType("test.fake") {
		t.Fatal("built-in type untrusted")
	}
	rm.Unmount("tr", 0)
	rm.Unmount("un", 0)
}
