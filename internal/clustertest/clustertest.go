// Package clustertest boots N in-process cryptgend nodes wired as a
// cluster: real service.Server instances behind real HTTP listeners on
// loopback, each configured with the others as peers. The drill table
// (drill.go), run by TestDrills, drives every cluster through this
// package, so "a cluster" means the same thing in every row.
//
// The only trick is ordering: every node must know all URLs before any
// node is constructed (Config.Peers is static), but ports are only known
// once listeners exist. So the listeners are bound first (port 0), the
// URL list derived from them, and then each server is created and attached
// to its pre-bound listener.
package clustertest

import (
	"fmt"
	"net"
	"net/http/httptest"
	"time"

	"cognicryptgen/service"
)

// Node is one in-process cluster member.
type Node struct {
	// Srv is the node's daemon (pool, cache, forwarder).
	Srv *service.Server
	// HTTP is the node's listener; requests to URL exercise the full
	// transport, exactly as a remote client or peer would.
	HTTP *httptest.Server
	// URL is the node's base URL — the string the other nodes list in
	// their Peers and the rendezvous member name.
	URL string

	// cfg is the node's resolved configuration, kept so Restart can build
	// an identical replacement daemon.
	cfg service.Config
	// killed marks a node taken down by Kill and not yet Restarted.
	killed bool
}

// Cluster is a set of in-process nodes forming one cryptgend cluster.
// With n == 1 the node runs standalone (no peers, no forwarding), which is
// the baseline configuration benchmarks compare against.
type Cluster struct {
	Nodes []*Node
}

// Start boots n nodes. cfg is the per-node configuration; Self and Peers
// are overwritten per node. The node-kill drill sets a short
// PeerProbeInterval so the survivors notice a downed node quickly.
// The prober's own timing (eject, re-admit, the 1 s probe-timeout floor)
// and the partition fallback are unit tests in service/cluster_test.go.
func Start(n int, cfg service.Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("clustertest: need at least one node, got %d", n)
	}
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range listeners[:i] {
				prev.Close()
			}
			return nil, err
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		nodeCfg := cfg
		nodeCfg.Self = urls[i]
		nodeCfg.Peers = nil
		for j, u := range urls {
			if j != i {
				nodeCfg.Peers = append(nodeCfg.Peers, u)
			}
		}
		n := &Node{URL: urls[i], cfg: nodeCfg}
		if err := n.boot(listeners[i]); err != nil {
			c.Close()
			for _, l := range listeners[i+1:] {
				l.Close()
			}
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// boot starts a fresh daemon from the node's configuration on l, which it
// then owns.
func (n *Node) boot(l net.Listener) error {
	srv, err := service.New(n.cfg)
	if err != nil {
		l.Close()
		return err
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	n.Srv, n.HTTP, n.killed = srv, ts, false
	return nil
}

// Kill takes node i down hard: in-flight connections are severed, the
// listener closes (peers and clients see connection refused), and then the
// daemon is closed. The drills' "kubectl delete pod". The node's address
// stays reserved in every other node's Peers list; Restart brings a fresh
// daemon back on it.
func (c *Cluster) Kill(i int) {
	n := c.Nodes[i]
	if n.killed {
		return
	}
	n.killed = true
	n.HTTP.CloseClientConnections()
	n.HTTP.Close()
	n.Srv.Close()
}

// Restart replaces a killed node with a brand-new daemon listening on the
// same address, as a supervisor would — fresh breakers and empty caches
// that its boot warm refills with the embedded templates' plans. The bind
// can race the dying listener's socket, so it retries briefly.
func (c *Cluster) Restart(i int) error {
	n := c.Nodes[i]
	if !n.killed {
		return fmt.Errorf("clustertest: node %d is not killed", i)
	}
	addr := n.HTTP.Listener.Addr().String()
	var l net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("clustertest: rebinding %s: %w", addr, err)
	}
	return n.boot(l)
}

// URLs returns the nodes' base URLs in node order (the SDK's member list).
func (c *Cluster) URLs() []string {
	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL
	}
	return urls
}

// Close stops every node: listeners first (so peers see connection
// refused, not hangs), then the daemons. Killed nodes are already down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		if n.killed {
			continue
		}
		n.HTTP.CloseClientConnections()
		n.HTTP.Close()
	}
	for _, n := range c.Nodes {
		if !n.killed {
			n.Srv.Close()
		}
	}
}
