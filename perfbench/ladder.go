package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"busarb/client"
	"busarb/internal/arbd"
	"busarb/internal/arbd/cluster"
	"busarb/internal/arbd/codec"
)

// The ladder enters serve-solo's operation, one uncontended acquire and
// release of agent 1 on an RR1 resource, at successively deeper points.
// The gap between adjacent rungs attributes the round trip to a layer:
//
//	daemon    Daemon.Acquire and Release, no socket
//	pipe      the binary server over an in-memory net.Pipe, frames through codec
//	tcp       the full binary client over loopback TCP
//	tcp_echo  a raw loopback echo of the same two frames: the floor
//	http      the HTTP transport
//	forward   entered at the non-owner of a two-node in-process cluster
//
// No workload enters through a non-owner, so the forward rung moves no
// gated metric; it is there so a forwarding change has a number.

var soloResource = arbd.ResourceConfig{Name: "bus", Agents: 1, Protocol: "RR1"}

func soloDaemon() (*arbd.Daemon, error) {
	return arbd.New(arbd.Config{Resources: []arbd.ResourceConfig{soloResource}})
}

// rung times roundTrip until the deadline, after a short warm-up, and
// returns the median in milliseconds with the sample count.
func rung(deadline time.Time, roundTrip func() error) (p50 float64, n int, err error) {
	for i := 0; i < 20; i++ {
		if err := roundTrip(); err != nil {
			return 0, 0, err
		}
	}
	var h latencyHist
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if err := roundTrip(); err != nil {
			return 0, 0, err
		}
		h.record(time.Since(t0))
	}
	return h.quantileMS(0.5), int(h.count()), nil
}

func daemonRung(deadline time.Time) (float64, int, error) {
	d, err := soloDaemon()
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	ctx := context.Background()
	return rung(deadline, func() error {
		lease, serr := d.Acquire(ctx, "bus", 1, 0, 0)
		if serr != nil {
			return fmt.Errorf("daemon acquire: %s", serr.Error())
		}
		if serr := d.Release("bus", lease.Token); serr != nil {
			return fmt.Errorf("daemon release: %s", serr.Error())
		}
		return nil
	})
}

// pipeListener hands the binary server in-memory connections.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a new connection the server accepts.
func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func pipeRung(deadline time.Time) (float64, int, error) {
	d, err := soloDaemon()
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	ln := newPipeListener()
	srv := arbd.NewBinaryServer(d)
	serving := make(chan error, 1)
	go func() { serving <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serving
	}()
	conn, err := ln.dial()
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	w, r := codec.NewWriter(conn), codec.NewReader(conn)
	resource := []byte("bus")
	token := make([]byte, 0, 64)
	var in codec.Frame
	var corr uint64
	call := func(out *codec.Frame, want codec.Type) error {
		corr++
		out.Corr = corr
		if err := w.WriteFrame(out); err != nil {
			return err
		}
		if err := r.Next(&in); err != nil {
			return err
		}
		if in.Type != want || in.Corr != corr {
			return fmt.Errorf("pipe: got %v corr %d, want %v corr %d", in.Type, in.Corr, want, corr)
		}
		return nil
	}
	return rung(deadline, func() error {
		if err := call(&codec.Frame{Type: codec.TAcquire, Agent: 1, Resource: resource}, codec.TGrant); err != nil {
			return err
		}
		token = append(token[:0], in.Token...)
		return call(&codec.Frame{Type: codec.TRelease, Resource: resource, Token: token}, codec.TReleased)
	})
}

// echoFrames are the two frames a binary round trip writes, encoded
// once: the echo rung moves the same bytes with no daemon behind them.
func echoFrames() (acquire, release []byte, err error) {
	acquire, err = codec.Append(nil, &codec.Frame{Type: codec.TAcquire, Corr: 1, Agent: 1, Resource: []byte("bus")})
	if err != nil {
		return nil, nil, err
	}
	release, err = codec.Append(nil, &codec.Frame{Type: codec.TRelease, Corr: 2, Resource: []byte("bus"), Token: []byte("bus-1-1000")})
	return acquire, release, err
}

func echoRung(deadline time.Time) (float64, int, error) {
	acquire, release, err := echoFrames()
	if err != nil {
		return 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	echoed := make(chan error, 1)
	go func() {
		s, err := ln.Accept()
		ln.Close()
		if err != nil {
			echoed <- err
			return
		}
		defer s.Close()
		_, err = io.Copy(s, s)
		echoed <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return 0, 0, err
	}
	buf := make([]byte, max(len(acquire), len(release)))
	echo := func(msg []byte) error {
		if _, err := conn.Write(msg); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, buf[:len(msg)])
		return err
	}
	p50, n, err := rung(deadline, func() error {
		if err := echo(acquire); err != nil {
			return err
		}
		return echo(release)
	})
	conn.Close()
	if eerr := <-echoed; err == nil && eerr != nil {
		err = eerr
	}
	return p50, n, err
}

// clientRung times acquire and release of agent 1 on "bus" through c.
func clientRung(deadline time.Time, c *client.Client) (float64, int, error) {
	ctx := context.Background()
	return rung(deadline, func() error {
		lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
		if err != nil {
			return err
		}
		if lease.Resource != "bus" || lease.Agent != 1 {
			return fmt.Errorf("lease %+v answers bus agent 1", lease)
		}
		return c.Release(ctx, lease)
	})
}

func httpRung(deadline time.Time) (float64, int, error) {
	d, err := soloDaemon()
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := &http.Server{Handler: d.Handler()}
	serving := make(chan error, 1)
	go func() { serving <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serving
	}()
	c, err := client.Dial("http://" + ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	return clientRung(deadline, c)
}

func forwardRung(deadline time.Time) (float64, int, error) {
	names := []string{"a", "b"}
	lns := make([]net.Listener, len(names))
	members := make([]cluster.Member, len(names))
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return 0, 0, err
		}
		lns[i] = ln
		members[i] = cluster.Member{Name: name, Addr: "tcp://" + ln.Addr().String()}
	}
	var nodes []*cluster.Node
	serving := make(chan error, len(names))
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for range nodes {
			<-serving
		}
	}()
	entry := ""
	for i, name := range names {
		n, err := cluster.New(cluster.Config{Self: name, Members: members,
			Resources: []arbd.ResourceConfig{soloResource}})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return 0, 0, err
		}
		nodes = append(nodes, n)
		go func(n *cluster.Node, ln net.Listener) { serving <- n.Serve(ln) }(n, lns[i])
		if !n.Owns(soloResource.Name) {
			entry = lns[i].Addr().String()
		}
	}
	if entry == "" {
		return 0, 0, errors.New("forward: no node is a non-owner of bus")
	}
	c, err := client.Dial("tcp://" + entry)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	return clientRung(deadline, c)
}
