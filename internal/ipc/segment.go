package ipc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrAccessDenied is returned when a process reads or maps a segment it has
// not been granted.
var ErrAccessDenied = errors.New("ipc: access denied")

// ErrNoSegment is returned when a named segment does not exist.
var ErrNoSegment = errors.New("ipc: no such segment")

// ErrSegmentFreed is returned when a segment is used after Free. Real
// shared memory would fault on a stale mapping; modeling the failure
// explicitly lets the race tests prove grant/free ordering.
var ErrSegmentFreed = errors.New("ipc: segment freed")

// Credentials are the process credentials a client presents over the UNIX
// domain socket when connecting to the Runtime (paper §III-C). The Runtime
// uses them for authentication and to grant segment access.
type Credentials struct {
	PID int
	UID int
	GID int
}

func (c Credentials) String() string {
	return fmt.Sprintf("pid=%d uid=%d gid=%d", c.PID, c.UID, c.GID)
}

// Segment models one vmalloc'd shared-memory region managed by the ShMemMod:
// a byte region plus an access-control list of processes allowed to map it.
// Memory can only be mapped by processes that have been granted access by
// the Runtime, even among processes launched by the same user.
type Segment struct {
	Name string

	mu    sync.RWMutex
	data  []byte
	acl   map[int]bool // pid -> granted
	freed bool

	// stats points at the owning manager's counters so grant/free deltas
	// are applied under s.mu, atomically with the ACL change they record.
	// nil for segments constructed outside a manager.
	stats *segmentCounters
}

// Grant allows pid to map the segment. Granting a freed segment fails:
// the grant/free ordering must be decided under the segment lock or a
// grant racing Free would leave the manager's grant accounting pointing
// at memory that no longer exists.
func (s *Segment) Grant(pid int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return fmt.Errorf("segment %q: %w", s.Name, ErrSegmentFreed)
	}
	if !s.acl[pid] {
		s.acl[pid] = true
		if s.stats != nil {
			s.stats.grants.Add(1)
		}
	}
	return nil
}

// Revoke removes pid's access.
func (s *Segment) Revoke(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acl[pid] {
		delete(s.acl, pid)
		if s.stats != nil {
			s.stats.grants.Add(-1)
		}
	}
}

// Granted reports whether pid may map the segment.
func (s *Segment) Granted(pid int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.acl[pid] && !s.freed
}

// Map returns the segment's backing bytes if pid has been granted access
// and the segment is still live.
func (s *Segment) Map(pid int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.freed {
		return nil, fmt.Errorf("segment %q pid %d: %w", s.Name, pid, ErrSegmentFreed)
	}
	if !s.acl[pid] {
		return nil, fmt.Errorf("segment %q pid %d: %w", s.Name, pid, ErrAccessDenied)
	}
	return s.data, nil
}

// View returns [off, off+n) of the segment without an ACL check. It is the
// runtime-internal accessor the buffer-handle layer uses: the worker
// address space owns every segment, so in-process access is trusted; ACLs
// gate client mappings only.
func (s *Segment) View(off, n int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.freed {
		return nil, fmt.Errorf("segment %q: %w", s.Name, ErrSegmentFreed)
	}
	if off < 0 || n < 0 || off+n > len(s.data) {
		return nil, fmt.Errorf("segment %q: view [%d,%d) out of range 0..%d", s.Name, off, off+n, len(s.data))
	}
	return s.data[off : off+n : off+n], nil
}

// Size returns the segment length in bytes.
func (s *Segment) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// free marks the segment dead and returns how many grants and bytes it
// held, applying the deltas to the manager counters under s.mu so no
// concurrent Grant can slip in between the flag and the accounting.
func (s *Segment) free() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return
	}
	s.freed = true
	if s.stats != nil {
		s.stats.grants.Add(-int64(len(s.acl)))
		s.stats.bytes.Add(-int64(len(s.data)))
		s.stats.count.Add(-1)
	}
	s.acl = map[int]bool{}
}

type segmentCounters struct {
	count  atomic.Int64
	bytes  atomic.Int64
	grants atomic.Int64
}

// SegmentStats is a point-in-time reading of a SegmentManager.
type SegmentStats struct {
	Count  int64 // live segments
	Bytes  int64 // total bytes across live segments
	Grants int64 // live (segment, pid) grant pairs
}

// SegmentManager is the ShMemMod stand-in: it allocates named shared
// segments and enforces per-process grants.
type SegmentManager struct {
	mu       sync.RWMutex
	segments map[string]*Segment
	counters segmentCounters
}

// NewSegmentManager returns an empty manager.
func NewSegmentManager() *SegmentManager {
	return &SegmentManager{segments: make(map[string]*Segment)}
}

// Allocate creates (or returns the existing) segment with the given name and
// size and grants the creating pid access. Size is only applied on creation.
func (m *SegmentManager) Allocate(name string, size int, creator Credentials) *Segment {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.segments[name]; ok {
		if s.Grant(creator.PID) == nil {
			return s
		}
		// The segment raced Free between our map read and the grant; fall
		// through and replace it with a fresh one.
	}
	s := &Segment{
		Name:  name,
		data:  make([]byte, size),
		acl:   map[int]bool{creator.PID: true},
		stats: &m.counters,
	}
	m.counters.count.Add(1)
	m.counters.bytes.Add(int64(size))
	m.counters.grants.Add(1)
	m.segments[name] = s
	return s
}

// Lookup returns the named segment.
func (m *SegmentManager) Lookup(name string) (*Segment, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.segments[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSegment)
	}
	return s, nil
}

// Free releases the named segment. Outstanding Segment pointers observe
// ErrSegmentFreed on Grant/Map rather than silently touching dead memory.
func (m *SegmentManager) Free(name string) {
	m.mu.Lock()
	s, ok := m.segments[name]
	delete(m.segments, name)
	m.mu.Unlock()
	if ok {
		s.free()
	}
}

// Names returns the allocated segment names (unordered).
func (m *SegmentManager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.segments))
	for n := range m.segments {
		out = append(out, n)
	}
	return out
}

// Stats returns current segment gauges (count, bytes, grants). Values are
// maintained under each segment's lock, so after all operations quiesce
// they exactly equal a walk of the live segments.
func (m *SegmentManager) Stats() SegmentStats {
	return SegmentStats{
		Count:  m.counters.count.Load(),
		Bytes:  m.counters.bytes.Load(),
		Grants: m.counters.grants.Load(),
	}
}
