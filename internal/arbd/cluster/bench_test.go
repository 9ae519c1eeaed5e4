package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"busarb/client"
	"busarb/internal/arbd"
)

// benchTick matches the arbd transport benchmarks: the cycle should
// be as short as stability allows, since the measurement is the
// transport (and here the forwarding hop), not the arbitration.
const benchTick = 50 * time.Microsecond

// benchCluster builds a two-node cluster serving one uncontended
// resource and returns the owner's and the non-owner's dial targets:
// the direct and the forwarded path to the same shard.
func benchCluster(b *testing.B) (direct, forwarded string) {
	b.Helper()
	rcs := []arbd.ResourceConfig{{Name: "bus", Agents: 1, Protocol: "RR1", Tick: benchTick}}
	names := []string{"a", "b"}
	lns := make(map[string]net.Listener, len(names))
	members := make([]Member, 0, len(names))
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[name] = ln
		members = append(members, Member{Name: name, Addr: "tcp://" + ln.Addr().String()})
	}
	addrs := make(map[string]string, len(names))
	var owner string
	for _, name := range names {
		n, err := New(Config{Self: name, Members: members, Resources: rcs})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		addrs[name] = lns[name].Addr().String()
		go n.Serve(lns[name])
		if n.Owns("bus") {
			owner = name
		}
	}
	for _, name := range names {
		if name != owner {
			return "tcp://" + addrs[owner], "tcp://" + addrs[name]
		}
	}
	b.Fatal("no non-owner in a two-member cluster")
	return "", ""
}

func benchClusterLoop(b *testing.B, target string) {
	b.Helper()
	c, err := client.Dial(target)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
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

// BenchmarkDirectAcquireRelease is the cluster baseline: the same
// round trip as arbd's BenchmarkBinaryAcquireRelease, but through a
// cluster node that owns the resource — the routed server's overhead
// without any forwarding.
func BenchmarkDirectAcquireRelease(b *testing.B) {
	direct, _ := benchCluster(b)
	benchClusterLoop(b, direct)
}

// BenchmarkForwardedAcquireRelease measures the forwarding hop: the
// identical round trip entered at the non-owner, so every frame
// crosses one extra node (route stamp, pooled inter-node connection,
// response relay). The delta against Direct is the price of hitting
// the wrong shard.
func BenchmarkForwardedAcquireRelease(b *testing.B) {
	_, forwarded := benchCluster(b)
	benchClusterLoop(b, forwarded)
}
