// peats-server runs one replica of a TCP-deployed replicated PEATS
// (paper Fig. 2). Four replicas with f=1 on one machine:
//
//	peats-server -id r0 -listen 127.0.0.1:7000 -peers r0=127.0.0.1:7000,r1=127.0.0.1:7001,r2=127.0.0.1:7002,r3=127.0.0.1:7003 -master secret
//	peats-server -id r1 -listen 127.0.0.1:7001 -peers ... (same)
//	... r2, r3 likewise.
//
// All replicas (and clients, see peats-client) must share the same
// -master secret, from which pairwise HMAC keys are derived. The
// served space uses the allow-all policy unless -policy selects one of
// the built-in consensus policies.
//
// In a partitioned deployment (M independent groups sharding the tuple
// key space) every replica additionally names its group and the shared
// topology file:
//
//	peats-server -id r0 -listen 127.0.0.1:7000 -group g0 -topology topo.json -master secret
//
// The topology file lists every group with its replicas and addresses;
// -peers and -f are then derived from the replica's own group (passing
// them anyway is allowed, but they must agree with the topology). The
// group identity is stamped into agreement so misrouted requests are
// dropped, and the replica signs 2PC outcomes with its attestation key
// (derived from -master) so clients can assemble transferable vote
// certificates for cross-partition commits.
package main

import (
	"context"
	"crypto/ed25519"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"log"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/buildinfo"
	"peats/internal/consensus"
	"peats/internal/durable"
	"peats/internal/metrics"
	"peats/internal/partition"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/transport"
	"peats/internal/universal"
)

func main() {
	var (
		id         = flag.String("id", "", "replica identity (must appear in -peers)")
		listen     = flag.String("listen", "", "listen address, e.g. 127.0.0.1:7000")
		peers      = flag.String("peers", "", "comma-separated id=addr pairs for ALL replicas")
		fFlag      = flag.Int("f", 1, "tolerated Byzantine replicas (n = 3f+1)")
		master     = flag.String("master", "", "shared master secret for pairwise keys")
		group      = flag.String("group", "", "partitioned deployment: this replica's group id (needs -topology)")
		topoPath   = flag.String("topology", "", "partitioned deployment: JSON topology file shared by all groups")
		polName    = flag.String("policy", "allow-all", "access policy: allow-all|weak|strong:<n>,<t>|lockfree")
		clients    = flag.String("clients", "", "comma-separated client identities to provision keys for")
		engine     = flag.String("store", "", "tuple-store engine: slice|indexed|durable (default indexed; durable needs -data-dir)")
		dataDir    = flag.String("data-dir", "", "durable engine data directory (selects -store durable): WAL + snapshots, recovered on restart")
		fsync      = flag.String("fsync", "interval", "durable engine fsync policy: always (per batch) | interval (group commit) | never")
		shards     = flag.Int("shards", 1, "space shards: per-shard locking lets reads and writes on different shards run concurrently (1-64)")
		batch      = flag.Int("batch", 64, "max client operations per batch, i.e. per agreement round (1 = unbatched)")
		batchDelay = flag.Duration("batch-delay", 2*time.Millisecond, "max time the primary holds a non-full batch while the pipeline is busy")
		sqProto    = flag.Int("sendq-protocol", 0, "per-peer protocol send-queue depth in frames; oldest dropped when full (default 4096)")
		sqRequest  = flag.Int("sendq-request", 0, "per-peer request send-queue depth in frames; newest rejected when full (default 1024)")
		sqBulk     = flag.Int("sendq-bulk", 0, "per-peer bulk send-queue depth in chunks; whole messages admitted or rejected (default 256)")
		bulkChunk  = flag.Int("bulk-chunk", 0, "bulk frames larger than this are chunked onto the dedicated bulk connection (default 64KiB)")
		metricsAt  = flag.String("metrics-addr", "", "serve Prometheus /metrics and JSON /status on this address (off when empty)")
		version    = flag.Bool("version", false, "print build version and exit")
		verbose    = flag.Bool("v", false, "log protocol events")
	)
	flag.Parse()
	if *version {
		buildinfo.Print("peats-server")
		return
	}
	if err := run(serverConfig{
		id: *id, listen: *listen, peers: *peers, clients: *clients,
		master: *master, polName: *polName, engine: *engine,
		group: *group, topology: *topoPath,
		dataDir: *dataDir, fsync: *fsync, metricsAddr: *metricsAt,
		f: *fFlag, shards: *shards, batch: *batch, batchDelay: *batchDelay,
		sendq: transport.TCPConfig{
			ProtocolDepth: *sqProto, RequestDepth: *sqRequest,
			BulkDepth: *sqBulk, BulkChunk: *bulkChunk,
		},
		verbose: *verbose,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "peats-server:", err)
		os.Exit(1)
	}
}

type serverConfig struct {
	id, listen, peers, clients, master, polName, engine string
	group, topology                                     string
	dataDir, fsync                                      string
	metricsAddr                                         string
	f, shards, batch                                    int
	batchDelay                                          time.Duration
	sendq                                               transport.TCPConfig
	verbose                                             bool

	// Test hooks. signals, when non-nil, replaces the OS signal
	// subscription (closing it is a no-op, not a signal); ready, when
	// non-nil, is called once the replica serves, with the bound
	// replica and metrics addresses.
	signals <-chan os.Signal
	ready   func(replicaAddr, metricsAddr string)
}

// serverStatus is the /status document: the replica's protocol
// position (read from its lock-free mirrors) plus the deployment shape.
// LastVC is why the replica last abandoned a view: "timer", "primary
// unreachable", "equivocation", "joined f+1", or "none".
type serverStatus struct {
	Replica  string         `json:"replica"`
	Group    string         `json:"group,omitempty"`
	View     uint64         `json:"view"`
	LastVC   string         `json:"last_view_change"`
	Executed uint64         `json:"executed"`
	LowWater uint64         `json:"low_water"`
	Batches  uint64         `json:"batches_proposed"`
	Records  int64          `json:"log_records"`
	Policy   string         `json:"policy"`
	Engine   string         `json:"engine"`
	Shards   int            `json:"shards"`
	Peers    []string       `json:"peers"`
	F        int            `json:"f"`
	Build    buildinfo.Info `json:"build"`
}

func run(cfg serverConfig) error {
	if cfg.id == "" || cfg.listen == "" || cfg.master == "" {
		return fmt.Errorf("-id, -listen and -master are required")
	}
	var topo *partition.Topology
	if cfg.topology != "" {
		if cfg.group == "" {
			return fmt.Errorf("-topology needs -group")
		}
		var err error
		topo, err = partition.LoadTopology(cfg.topology)
		if err != nil {
			return err
		}
		gspec, ok := topo.Group(cfg.group)
		if !ok {
			return fmt.Errorf("group %q is not in topology %s", cfg.group, cfg.topology)
		}
		// The topology is the authority on the group's fault bound and
		// membership; -peers may still override addresses (NAT, tests).
		cfg.f = gspec.F
		if cfg.peers == "" {
			pairs := make([]string, len(gspec.Replicas))
			for i, r := range gspec.Replicas {
				if r.Addr == "" {
					return fmt.Errorf("topology has no address for replica %q of group %q (add addr fields or pass -peers)",
						r.ID, cfg.group)
				}
				pairs[i] = r.ID + "=" + r.Addr
			}
			cfg.peers = strings.Join(pairs, ",")
		}
	} else if cfg.group != "" {
		return fmt.Errorf("-group needs -topology")
	}
	if cfg.peers == "" {
		return fmt.Errorf("-peers (or a -topology carrying addresses) is required")
	}
	addrs, err := parsePeers(cfg.peers)
	if err != nil {
		return err
	}
	replicaIDs := make([]string, 0, len(addrs))
	for rid := range addrs {
		replicaIDs = append(replicaIDs, rid)
	}
	sort.Strings(replicaIDs)
	if len(replicaIDs) != 3*cfg.f+1 {
		return fmt.Errorf("got %d replicas for f=%d, need %d", len(replicaIDs), cfg.f, 3*cfg.f+1)
	}
	if topo != nil {
		gspec, _ := topo.Group(cfg.group)
		for _, r := range gspec.Replicas {
			if _, ok := addrs[r.ID]; !ok {
				return fmt.Errorf("-peers disagrees with topology: group %q expects replica %q", cfg.group, r.ID)
			}
		}
		if _, ok := addrs[cfg.id]; !ok {
			return fmt.Errorf("replica %q is not a member of group %q", cfg.id, cfg.group)
		}
	}

	pol, err := buildPolicy(cfg.polName)
	if err != nil {
		return err
	}

	// Provision pairwise keys for replicas and known clients. The same
	// keyring authenticates transport frames and verifies the request
	// authenticator vectors clients attach for the batching fast path.
	all := append([]string{}, replicaIDs...)
	if cfg.clients != "" {
		all = append(all, strings.Split(cfg.clients, ",")...)
	}
	kr := auth.NewKeyringFromMaster([]byte(cfg.master), cfg.id, all)

	tr, err := transport.NewTCPWithConfig(cfg.id, cfg.listen, addrs, kr, cfg.sendq)
	if err != nil {
		return err
	}
	defer tr.Close()

	var (
		svc *bft.SpaceService
		db  *durable.DB
	)
	if cfg.dataDir != "" || cfg.engine == string(space.EngineDurable) {
		if cfg.dataDir == "" {
			return fmt.Errorf("-store durable needs -data-dir")
		}
		db, err = durable.Open(durable.Options{
			Dir:  cfg.dataDir,
			Sync: durable.SyncPolicy(cfg.fsync),
			// The replica offers the log for compaction at checkpoints.
			AutoCompactBytes: -1,
		})
		if err != nil {
			return err
		}
		defer db.Close()
		svc, err = bft.NewDurableSpaceService(pol, db, cfg.shards)
		if err != nil {
			return err
		}
		fmt.Printf("recovered %d tuples up to agreement seq %d from %s\n",
			len(db.Recovered().Tuples), db.Recovered().UnitSeq, cfg.dataDir)
	} else {
		svc, err = bft.NewSpaceServiceWithConfig(pol, space.Engine(cfg.engine), cfg.shards)
		if err != nil {
			return err
		}
	}

	// In a partitioned deployment the replica enforces its group
	// boundary (2PC prepares for other groups are rejected) and signs
	// agreed 2PC outcomes so clients can carry them across groups.
	var attestKey ed25519.PrivateKey
	if topo != nil {
		svc.EnablePartition(cfg.group, topo.Directory([]byte(cfg.master)))
		attestKey = bft.AttestKeyFor([]byte(cfg.master), cfg.group, cfg.id)
	}

	var logger *log.Logger
	if cfg.verbose {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}

	// The metrics registry exists only when an endpoint will serve it:
	// a nil registry makes every instrumented site a no-op branch.
	var reg *metrics.Registry
	if cfg.metricsAddr != "" {
		reg = metrics.New()
		bi := buildinfo.Read()
		reg.GaugeFunc("peats_build_info",
			"Build identity; always 1, the labels carry the version.",
			func() float64 { return 1 },
			metrics.L("version", bi.Version), metrics.L("revision", bi.Revision),
			metrics.L("go", bi.Go), metrics.L("replica", cfg.id))
	}

	rep, err := bft.NewReplica(bft.ReplicaConfig{
		ID:         cfg.id,
		Replicas:   replicaIDs,
		F:          cfg.f,
		Transport:  tr,
		Service:    svc,
		BatchSize:  cfg.batch,
		BatchDelay: cfg.batchDelay,
		Keyring:    kr,
		Logger:     logger,
		Group:      cfg.group,
		AttestKey:  attestKey,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	if reg != nil {
		tr.EnableMetrics(reg, metrics.L("replica", cfg.id))
	}
	rep.Start()
	fmt.Printf("replica %s serving on %s (group %v, f=%d, policy %s, batch %d, shards %d, store %s)\n",
		cfg.id, tr.Addr(), replicaIDs, cfg.f, cfg.polName, cfg.batch, svc.Space().Shards(), svc.Space().Engine())
	if topo != nil {
		fmt.Printf("partition %s of %d-group topology %s\n", cfg.group, len(topo.Groups), cfg.topology)
	}

	// Observability endpoint: Prometheus text on /metrics (JSON with
	// ?format=json) and the status document on /status. Serving only
	// reads atomic mirrors and registry state, never the event loop's.
	var (
		httpSrv     *http.Server
		httpErr     = make(chan error, 1)
		metricsAddr string
	)
	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsAddr = ln.Addr().String()
		status := func() any {
			return serverStatus{
				Replica:  cfg.id,
				Group:    cfg.group,
				View:     rep.View(),
				LastVC:   rep.LastViewChange().String(),
				Executed: rep.Executed(),
				LowWater: rep.LowWater(),
				Batches:  rep.BatchesProposed(),
				Records:  rep.LogRecords(),
				Policy:   cfg.polName,
				Engine:   string(svc.Space().Engine()),
				Shards:   svc.Space().Shards(),
				Peers:    replicaIDs,
				F:        cfg.f,
				Build:    buildinfo.Read(),
			}
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(reg))
		mux.Handle("/status", metrics.StatusHandler(status))
		httpSrv = &http.Server{Handler: mux}
		go func() { httpErr <- httpSrv.Serve(ln) }()
		fmt.Printf("metrics on http://%s/metrics, status on http://%s/status\n", metricsAddr, metricsAddr)
	}
	if cfg.ready != nil {
		cfg.ready(tr.Addr(), metricsAddr)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM drains and closes the
	// metrics endpoint, stops ordering and execution, closes the
	// transport, and flushes and closes the WAL (the deferred db.Close
	// reports any final I/O error); a second signal aborts immediately.
	sig := cfg.signals
	if sig == nil {
		ch := make(chan os.Signal, 2)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sig = ch
	}
	<-sig
	fmt.Println("shutting down: draining replica and flushing the log")
	go func() {
		if _, ok := <-sig; !ok {
			return // channel closed by a test harness, not a signal
		}
		fmt.Fprintln(os.Stderr, "peats-server: forced exit")
		os.Exit(2)
	}()
	if httpSrv != nil {
		// Drain in-flight scrapes, then stop accepting; a scrape that
		// outlives the grace period is cut off with the listener.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			_ = httpSrv.Close()
		}
		cancel()
		if err := <-httpErr; err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "peats-server: metrics endpoint:", err)
		}
	}
	rep.Stop()
	tr.Close()
	if db != nil {
		if err := db.Close(); err != nil {
			return fmt.Errorf("flush WAL: %w", err)
		}
	}
	fmt.Println("shutdown complete")
	return nil
}

func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", pair)
		}
		out[id] = addr
	}
	return out, nil
}

// buildPolicy maps a policy name to one of the paper's access policies.
func buildPolicy(name string) (policy.Policy, error) {
	switch {
	case name == "allow-all":
		return policy.AllowAll(), nil
	case name == "weak":
		return consensus.WeakPolicy(), nil
	case name == "lockfree":
		return universal.LockFreePolicy(), nil
	case strings.HasPrefix(name, "strong:"):
		var n, t int
		if _, err := fmt.Sscanf(name, "strong:%d,%d", &n, &t); err != nil {
			return policy.Policy{}, fmt.Errorf("bad strong policy %q (want strong:<n>,<t>)", name)
		}
		procs := make([]policy.ProcessID, n)
		for i := range procs {
			procs[i] = policy.ProcessID(fmt.Sprintf("p%d", i))
		}
		return consensus.StrongPolicy(procs, t, []int64{0, 1}), nil
	default:
		return policy.Policy{}, fmt.Errorf("unknown policy %q", name)
	}
}
