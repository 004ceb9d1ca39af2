package telemetry

import (
	"reflect"
	"testing"
)

func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		push     int   // values 1..push are pushed in order
		want     []int // recent(), oldest first
	}{
		{"empty", 4, 0, []int{}},
		{"partial fill", 4, 3, []int{1, 2, 3}},
		{"exactly full", 4, 4, []int{1, 2, 3, 4}},
		{"wrap order", 4, 10, []int{7, 8, 9, 10}},
		{"capacity 1", 1, 5, []int{5}},
	} {
		r := newRing[int](tc.capacity)
		for i := 1; i <= tc.push; i++ {
			r.push(i)
		}
		if got := r.recent(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: recent() = %v, want %v", tc.name, got, tc.want)
		}
		if got := r.total(); got != int64(tc.push) {
			t.Errorf("%s: total() = %d, want %d", tc.name, got, tc.push)
		}
	}
}
