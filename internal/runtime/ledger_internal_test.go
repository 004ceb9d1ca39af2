package runtime

import (
	"testing"

	"labstor/internal/ipc"
)

// TestConnectionLedger: a connection creates one entry in the client table
// and one queue pair, which the Snapshot lists, and Disconnect gives both
// back. 100 clients connected at once hold 100 of each; once they and 100
// connect/disconnect pairs after them are gone, both are where they started.
func TestConnectionLedger(t *testing.T) {
	const n = 100
	rt := New(Options{MaxWorkers: 2, QueueDepth: 64})
	rt.Start()
	defer rt.Shutdown()
	ledger := func() (clients, queues int) {
		rt.mu.Lock()
		clients = len(rt.clients)
		rt.mu.Unlock()
		return clients, len(rt.Snapshot().Queues)
	}
	clients0, queues0 := ledger()

	held := make([]*Client, n)
	for i := range held {
		held[i] = rt.Connect(ipc.Credentials{PID: 1 + i})
	}
	if c, q := ledger(); c != clients0+n || q != queues0+n {
		t.Fatalf("%d clients connected: %d clients and %d queues, want %d and %d", n, c, q, clients0+n, queues0+n)
	}
	for _, c := range held {
		c.Disconnect()
	}
	for i := 0; i < n; i++ {
		rt.Connect(ipc.Credentials{PID: 1 + i}).Disconnect()
	}
	if c, q := ledger(); c != clients0 || q != queues0 {
		t.Fatalf("after disconnecting: %d clients and %d queues, want %d and %d", c, q, clients0, queues0)
	}
}
