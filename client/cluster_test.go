package client

import (
	"context"
	"sync"
	"testing"
)

// TestClusterDialsMemberOnce pins that a burst of first calls to a
// cluster member shares one dial: every caller that finds the member's
// dial in flight waits for it instead of opening a connection of its
// own.
func TestClusterDialsMemberOnce(t *testing.T) {
	srv := newFakeServer(t, "127.0.0.1:0")
	c, err := DialCluster([]string{"tcp://" + srv.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const agents = 64
	var wg sync.WaitGroup
	for agent := 1; agent <= agents; agent++ {
		wg.Add(1)
		go func(agent int) {
			defer wg.Done()
			if _, err := c.Acquire(context.Background(), "bus", agent, AcquireOptions{}); err != nil {
				t.Errorf("agent %d: %v", agent, err)
			}
		}(agent)
	}
	wg.Wait()
	srv.mu.Lock()
	n := len(srv.conns)
	srv.mu.Unlock()
	if n != 1 {
		t.Errorf("%d concurrent first calls opened %d connections, want 1", agents, n)
	}
}
