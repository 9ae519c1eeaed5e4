// Command arbd serves bus-style arbitration: named resources are
// granted to networked agents by the paper's protocols — the same
// internal/core implementations the simulators run, driven by
// internal/arbd's shard loops — over two transports sharing one daemon:
// JSON over HTTP (-addr) and the compact binary protocol (-baddr; spec
// in docs/WIRE.md). A resource may use any registered protocol (FP,
// RR1, RR2, RR3, FCFS1, FCFS2, AAP1, AAP2, Hybrid, RotRR, Ticket and
// the priority variants; the -resources help lists them all) or a tree
// of them.
//
// Examples:
//
//	arbd -addr :8321 -resources bus:10:RR1
//	arbd -resources "bus:10:RR1,disk:4:FCFS2" -tick 500us -ttl 5s
//	arbd -resources bus:8x4:RR1/FCFS2     # 4 clusters of 8, tree arbitration
//	arbd -addr 127.0.0.1:0 -resources bus:8:FP   # free port, printed
//	arbd -addr :8321 -baddr :8322                # HTTP and binary
//
// -cluster turns the process into one member of an arbd cluster
// (internal/arbd/cluster): the flag lists every member as
// name=tcp://host:port pairs, -self names this one, and the
// consistent-hash ring decides which of the -resources this node
// actually runs — frames for the rest are forwarded to their owners
// over the binary protocol. Every member must be started with the
// same -cluster, -resources and -cluster-seed. The binary listener is
// mandatory in cluster mode (it is the inter-node transport) and
// defaults to the self member's address:
//
//	arbd -cluster "a=tcp://h1:8322,b=tcp://h2:8322" -self a -resources "bus:10:RR1,disk:4:FCFS2"
//
// The daemon prints "arbd: listening on HOST:PORT" once HTTP is
// accepting connections ("arbd: binary listening on HOST:PORT" for
// -baddr) and exits 0 on SIGINT/SIGTERM after answering every queued
// acquire with the overload code.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"busarb/internal/arbd"
	"busarb/internal/arbd/cluster"
	"busarb/internal/core"
	"busarb/internal/topo"
)

// parseCluster parses the -cluster spec: comma-separated
// name=tcp://host:port pairs, one per member.
func parseCluster(spec string) ([]cluster.Member, error) {
	var out []cluster.Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("arbd: bad cluster member %q, want name=addr", part)
		}
		out = append(out, cluster.Member{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("arbd: -cluster spec %q names no members", spec)
	}
	return out, nil
}

// parseResources parses the -resources spec: a comma-separated list of
// name:agents:protocol triples sharing the flag-level timing knobs.
// The agents and protocol fields may describe an arbitration tree,
// level by level from the leaves: "bus:8x4:RR1/FCFS2" is 4 clusters of
// 8 agents arbitrating under RR1, cluster winners competing under
// FCFS2 at the root.
func parseResources(spec string, tick, ttl time.Duration, queue int, window float64) ([]arbd.ResourceConfig, error) {
	var out []arbd.ResourceConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("arbd: bad resource spec %q, want name:agents:protocol", part)
		}
		rc := arbd.ResourceConfig{
			Name:          fields[0],
			Tick:          tick,
			TTL:           ttl,
			MaxQueue:      queue,
			MetricsWindow: window,
		}
		// A tree has more than one level ("8x4"); a flat resource takes
		// the protocol verbatim, so names like "RR1+prio/rr" serve too.
		if strings.Contains(fields[1], "x") {
			tree, err := topo.ParseUniform(fields[1], fields[2])
			if err != nil {
				return nil, fmt.Errorf("arbd: bad tree spec %q: %v", part, err)
			}
			rc.Topo = tree
		} else {
			agents, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("arbd: bad agent count in %q: %v", part, err)
			}
			rc.Agents = agents
			rc.Protocol = fields[2]
		}
		out = append(out, rc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("arbd: -resources spec %q names no resources", spec)
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "HTTP listen address (host:port; port 0 picks a free port)")
	baddr := flag.String("baddr", "", "binary-protocol listen address (empty: binary transport off)")
	resources := flag.String("resources", "bus:10:RR1",
		"comma-separated resource specs, each name:agents:protocol (tree form: name:8x4:RR1/FCFS2, leaves first); protocols: "+
			strings.Join(core.Names(), ", "))
	tick := flag.Duration("tick", 0, "bus-cycle tick for every resource (0: 1ms default)")
	ttl := flag.Duration("ttl", 0, "maximum lease lifetime (0: 30s default)")
	queue := flag.Int("queue", 0, "max queued waiters per resource (0: 1024 default)")
	window := flag.Float64("metrics-window", 0, "/metricz wait-quantile window in seconds (0: 5s default)")
	clusterSpec := flag.String("cluster", "",
		"cluster membership: comma-separated name=tcp://host:port pairs, identical on every member (empty: standalone)")
	self := flag.String("self", "self", "this node's member name in -cluster")
	clusterSeed := flag.Uint64("cluster-seed", 0, "consistent-hash ring seed; must match on every member")
	flag.Parse()

	rcs, err := parseResources(*resources, *tick, *ttl, *queue, *window)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *clusterSpec != "" {
		runCluster(rcs, *clusterSpec, *self, *clusterSeed, *addr, *baddr)
		return
	}
	d, err := arbd.New(arbd.Config{Resources: rcs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		d.Close()
		fmt.Fprintln(os.Stderr, "arbd:", err)
		os.Exit(1)
	}
	var bln net.Listener
	if *baddr != "" {
		bln, err = net.Listen("tcp", *baddr)
		if err != nil {
			ln.Close()
			d.Close()
			fmt.Fprintln(os.Stderr, "arbd:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("arbd: listening on %s\n", ln.Addr())
	if bln != nil {
		fmt.Printf("arbd: binary listening on %s\n", bln.Addr())
	}
	for _, rc := range rcs {
		agents := rc.Agents
		if rc.Topo != nil {
			agents = rc.Topo.TotalAgents()
		}
		fmt.Printf("arbd: serving %q to %d agents under %s\n", rc.Name, agents, rc.ProtocolName())
	}

	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var bsrv *arbd.BinaryServer
	if bln != nil {
		bsrv = arbd.NewBinaryServer(d)
		go func() {
			if err := bsrv.Serve(bln); err != nil && err != arbd.ErrServerClosed {
				serveErr <- err
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("arbd: %s, shutting down\n", sig)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "arbd:", err)
		if bsrv != nil {
			bsrv.Close()
		}
		d.Close()
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if bsrv != nil {
		bsrv.Close()
	}
	d.Close()
}

// runCluster is the -cluster serving path: one cluster.Node wrapping
// the local shards, with the binary listener doubling as the
// inter-node transport and the HTTP listener serving the node's
// /clusterz- and /metricz-augmented surface.
func runCluster(rcs []arbd.ResourceConfig, spec, self string, seed uint64, addr, baddr string) {
	members, err := parseCluster(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	node, err := cluster.New(cluster.Config{
		Self:      self,
		Members:   members,
		Resources: rcs,
		Seed:      seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbd:", err)
		os.Exit(1)
	}
	if baddr == "" {
		// The self member's advertised address is where peers will dial;
		// listening there is the sane default. -baddr still overrides for
		// hosts that must bind a different interface than they advertise.
		baddr = strings.TrimPrefix(node.Self().Addr, "tcp://")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		node.Close()
		fmt.Fprintln(os.Stderr, "arbd:", err)
		os.Exit(1)
	}
	bln, err := net.Listen("tcp", baddr)
	if err != nil {
		ln.Close()
		node.Close()
		fmt.Fprintln(os.Stderr, "arbd:", err)
		os.Exit(1)
	}
	fmt.Printf("arbd: listening on %s\n", ln.Addr())
	fmt.Printf("arbd: binary listening on %s\n", bln.Addr())
	owned := 0
	for _, rc := range rcs {
		if node.Owns(rc.Name) {
			owned++
		}
	}
	fmt.Printf("arbd: cluster member %q of %d; ring assigns this node %d/%d resources\n",
		self, len(members), owned, len(rcs))

	srv := &http.Server{Handler: node.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	go func() {
		if err := node.Serve(bln); err != nil && err != arbd.ErrServerClosed {
			serveErr <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("arbd: %s, shutting down\n", sig)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "arbd:", err)
		node.Close()
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	node.Close()
}
