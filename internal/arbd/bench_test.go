package arbd

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"busarb/client"
)

// benchTick is finer than testTick: the benchmarks measure transport
// overhead around the grant cycle, so the cycle itself should be as
// short as stability allows.
const benchTick = 50 * time.Microsecond

// benchDaemon builds an uncontended single-agent daemon; each
// iteration's acquire is granted on the next tick.
func benchDaemon(b *testing.B) *Daemon {
	b.Helper()
	d, err := New(Config{Resources: []ResourceConfig{{
		Name: "bus", Agents: 1, Protocol: "RR1", Tick: benchTick,
	}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

// BenchmarkDaemonAcquireRelease is the socket-free rung under the
// transport benchmarks: Daemon.Acquire and Daemon.Release called
// directly, so only the shard loop's round trip, the grant cycle
// included, remains.
func BenchmarkDaemonAcquireRelease(b *testing.B) {
	d := benchDaemon(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, serr := d.Acquire(ctx, "bus", 1, 0, 0)
		if serr != nil {
			b.Fatal(serr)
		}
		if serr := d.Release("bus", lease.Token); serr != nil {
			b.Fatal(serr)
		}
	}
	b.StopTimer()
}

// benchLoop runs acquire+release round trips through c.
func benchLoop(b *testing.B, c *client.Client) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Release(ctx, lease); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkBinaryAcquireRelease is the binary transport end to end: a
// real TCP socket, the codec on both sides, the transport-blind
// daemon entry points, one uncontended agent.
func BenchmarkBinaryAcquireRelease(b *testing.B) {
	d := benchDaemon(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	bs := NewBinaryServer(d)
	go bs.Serve(ln)
	defer bs.Close()

	c, err := client.Dial("tcp://" + ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	benchLoop(b, c)
}

// BenchmarkHTTPAcquireRelease is the same round trip over the HTTP
// transport, the binary benchmark's baseline.
func BenchmarkHTTPAcquireRelease(b *testing.B) {
	d := benchDaemon(b)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	c, err := client.Dial(srv.URL)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	benchLoop(b, c)
}
