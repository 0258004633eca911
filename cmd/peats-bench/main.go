// peats-bench regenerates the paper's evaluation tables on the running
// implementation:
//
//	peats-bench -table bits        E1: memory comparison (§5.2, fn. 3-4)
//	peats-bench -table ops         E8: operation counts vs ACL baseline (§7)
//	peats-bench -table resilience  E2: n ≥ 3t+1 bound (Thm. 2 / Cor. 1)
//	peats-bench -table kvalued     E3: n ≥ (k+1)t+1 bound (Thms. 3-4)
//	peats-bench -table ablation    design-choice costs
//	peats-bench -table stores      storage-engine comparison (slice vs indexed)
//	peats-bench -table agreement   agreement layer: batched vs unbatched, read-only vs ordered
//	peats-bench -table shards      sharded space: fast-path reads under write contention per shard count
//	peats-bench -table tx          atomic k-op transactions vs k sequential round trips
//	peats-bench -table durable     WAL group-commit vs fsync-per-op, recovery time vs WAL length
//	peats-bench -table latency     commit round cut: committed vs tentative vs pipelined Submit
//	peats-bench -table transport   TCP wire layer: write coalescing throughput, vote p99 under bulk
//	peats-bench -table partitions  partitioned deployment: write scaling per group count, 2PC cost
//	peats-bench -table all         everything
//
// The agreement table additionally writes a machine-readable report to
// -json (default BENCH_agreement.json); size it with -agree-writers,
// -agree-ops, -agree-reads and -agree-batch. The shards table writes
// -shards-json (default BENCH_shards.json); size it with -shard-counts,
// -shard-writers, -shard-readers, -shard-reads, -shard-resident and
// -shard-duration. The tx table writes -tx-json (default
// BENCH_tx.json); size it with -tx-k, -tx-rounds and -tx-groups.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"peats/internal/bench"
	"peats/internal/buildinfo"
)

// knownTables lists every -table value, in print order for "all".
var knownTables = []string{
	"bits", "ops", "resilience", "kvalued", "ablation", "stores",
	"agreement", "shards", "tx", "durable", "latency", "transport",
	"partitions", "all",
}

func main() {
	var (
		table      = flag.String("table", "all", "table to print: "+strings.Join(knownTables, "|"))
		seed       = flag.Int64("seed", 1, "workload seed for randomized table state (logged every run so results reproduce exactly)")
		tsFlag     = flag.String("t", "1,2,3,4", "comma-separated fault bounds t")
		ksFlag     = flag.String("k", "2,3,4", "comma-separated domain sizes k (kvalued table)")
		probe      = flag.Duration("probe", 500*time.Millisecond, "stall window for below-bound probes")
		timeout    = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		storeSizes = flag.String("store-sizes", "", "stores table: comma-separated resident-set sizes (default 10,100,10000)")
		agWriter   = flag.Int("agree-writers", 0, "agreement table: concurrent writer clients (default 32)")
		agOps      = flag.Int("agree-ops", 0, "agreement table: ordered write ops (out/inp) per writer (default 60)")
		agReads    = flag.Int("agree-reads", 0, "agreement table: rdp probes per read mode (default 300)")
		agBatch    = flag.Int("agree-batch", 0, "agreement table: batched configuration (default 64)")
		jsonPath   = flag.String("json", "BENCH_agreement.json", "agreement table: machine-readable report path ('' disables)")
		shCounts   = flag.String("shard-counts", "", "shards table: comma-separated shard counts (default 1,4,16)")
		shWriters  = flag.Int("shard-writers", 0, "shards table: concurrent writer clients (default 8)")
		shReaders  = flag.Int("shard-readers", 0, "shards table: concurrent read-only clients (default 8)")
		shReads    = flag.Int("shard-reads", 0, "shards table: fast-path rdp probes per reader (default 400)")
		shResident = flag.Int("shard-resident", 0, "shards table: resident filler tuples the write-quota monitor scans (default 600)")
		shDur      = flag.Duration("shard-duration", 0, "shards table: space-level measurement window per shard count (default 500ms)")
		shJSONPath = flag.String("shards-json", "BENCH_shards.json", "shards table: machine-readable report path ('' disables)")
		txK        = flag.Int("tx-k", 0, "tx table: operations per transaction (default 8)")
		txRounds   = flag.Int("tx-rounds", 0, "tx table: units per mode (default 16)")
		txGroups   = flag.String("tx-groups", "", "tx table: comma-separated fault bounds f (default 1,2)")
		txJSONPath = flag.String("tx-json", "BENCH_tx.json", "tx table: machine-readable report path ('' disables)")
		durOps     = flag.Int("dur-ops", 0, "durable table: committed units per fsync-policy measurement (default 2000)")
		durWALs    = flag.String("dur-wals", "", "durable table: comma-separated WAL lengths for the recovery sweep (default 1000,5000,20000)")
		durJSON    = flag.String("durable-json", "BENCH_durable.json", "durable table: machine-readable report path ('' disables)")
		latOps     = flag.Int("lat-ops", 0, "latency table: Submit calls per mode (default 160)")
		latDepth   = flag.Int("lat-depth", 0, "latency table: SubmitAsync window per Flush in the pipelined mode (default 8)")
		latGroups  = flag.String("lat-groups", "", "latency table: comma-separated fault bounds f (default 1,2)")
		latDelay   = flag.Duration("lat-delay", 0, "latency table: simulated one-way link delay (default 100µs; negative disables)")
		latJSON    = flag.String("latency-json", "BENCH_latency.json", "latency table: machine-readable report path ('' disables)")
		tpSenders  = flag.Int("tp-senders", 0, "transport table: concurrent sender goroutines (default 4)")
		tpFrames   = flag.Int("tp-frames", 0, "transport table: frames per sender (default 20000)")
		tpBytes    = flag.Int("tp-frame-bytes", 0, "transport table: vote-sized payload bytes per frame (default 64)")
		tpVotes    = flag.Int("tp-votes", 0, "transport table: vote round-trips per latency mode (default 1500)")
		tpBulk     = flag.Int("tp-bulk-bytes", 0, "transport table: bytes per concurrent state pack (default 4MiB)")
		tpBulkRate = flag.Int("tp-bulk-mbps", 0, "transport table: state-pack stream rate in MB/s (default 32)")
		tpJSON     = flag.String("transport-json", "BENCH_transport.json", "transport table: machine-readable report path ('' disables)")
		ptWriters  = flag.Int("part-writers", 0, "partitions table: concurrent writer clients (default 16)")
		ptOps      = flag.Int("part-ops", 0, "partitions table: single-partition write ops per writer (default 150)")
		ptGroups   = flag.String("part-groups", "", "partitions table: comma-separated group counts M (default 1,2,4)")
		ptF        = flag.Int("part-f", 0, "partitions table: per-group fault bound of the scaling sweep (default 0)")
		ptCross    = flag.Int("part-cross", 0, "partitions table: cross-partition 2PC submissions per writer (default 40)")
		ptJSON     = flag.String("partitions-json", "BENCH_partitions.json", "partitions table: machine-readable report path ('' disables)")
		version    = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print("peats-bench")
		return
	}
	fmt.Fprintf(os.Stderr, "peats-bench: seed=%d\n", *seed)
	agree := bench.AgreementConfig{
		Writers: *agWriter, OpsPerWriter: *agOps, Reads: *agReads, BatchSize: *agBatch,
	}
	shards := bench.ShardsConfig{
		Writers: *shWriters, Readers: *shReaders, ReadsPerReader: *shReads,
		Resident: *shResident, Duration: *shDur, Seed: *seed,
	}
	tx := bench.TxConfig{K: *txK, Rounds: *txRounds}
	cfg := benchConfig{
		table: *table, ts: *tsFlag, ks: *ksFlag,
		storeSizes: *storeSizes, shardCounts: *shCounts,
		probe: *probe, timeout: *timeout,
		agree: agree, agreeJSON: *jsonPath,
		shards: shards, shardsJSON: *shJSONPath,
		tx: tx, txGroups: *txGroups, txJSON: *txJSONPath,
		durable: bench.DurableConfig{Ops: *durOps}, durWALs: *durWALs, durableJSON: *durJSON,
		latency:   bench.LatencyConfig{Ops: *latOps, Depth: *latDepth, NetDelay: *latDelay},
		latGroups: *latGroups, latencyJSON: *latJSON,
		transport: bench.TransportConfig{
			Senders: *tpSenders, Frames: *tpFrames, FrameBytes: *tpBytes,
			Votes: *tpVotes, BulkBytes: *tpBulk, BulkMBps: *tpBulkRate,
		},
		transportJSON: *tpJSON,
		partitions: bench.PartitionsConfig{
			Writers: *ptWriters, OpsPerWriter: *ptOps, CrossOps: *ptCross, F: *ptF,
		},
		partGroups: *ptGroups, partitionsJSON: *ptJSON,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "peats-bench:", err)
		os.Exit(1)
	}
}

type benchConfig struct {
	table, ts, ks           string
	storeSizes, shardCounts string
	probe, timeout          time.Duration
	agree                   bench.AgreementConfig
	agreeJSON               string
	shards                  bench.ShardsConfig
	shardsJSON              string
	tx                      bench.TxConfig
	txGroups, txJSON        string
	durable                 bench.DurableConfig
	durWALs, durableJSON    string
	latency                 bench.LatencyConfig
	latGroups, latencyJSON  string
	transport               bench.TransportConfig
	transportJSON           string
	partitions              bench.PartitionsConfig
	partGroups              string
	partitionsJSON          string
}

func run(cfg benchConfig) error {
	known := false
	for _, t := range knownTables {
		if cfg.table == t {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown table %q (known tables: %s)",
			cfg.table, strings.Join(knownTables, ", "))
	}
	ts, err := parseInts(cfg.ts)
	if err != nil {
		return fmt.Errorf("-t: %w", err)
	}
	ks, err := parseInts(cfg.ks)
	if err != nil {
		return fmt.Errorf("-k: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	want := func(name string) bool { return cfg.table == "all" || cfg.table == name }

	if want("bits") {
		fmt.Println("E1 — memory to solve strong binary consensus (paper §5.2):")
		rows, err := bench.BitsTable(ctx, ts)
		if err != nil {
			return err
		}
		bench.WriteBitsTable(os.Stdout, rows)
		fmt.Println()
	}
	if want("ops") {
		fmt.Println("E8 — measured shared-memory operations, PEATS vs sticky-bit/ACL baseline (§7):")
		rows, err := bench.OpsTable(ctx, ts)
		if err != nil {
			return err
		}
		bench.WriteOpsTable(os.Stdout, rows)
		fmt.Println()
	}
	if want("resilience") {
		fmt.Println("E2 — strong binary consensus resilience bound n ≥ 3t+1 (Cor. 1):")
		bench.WriteResilienceTable(os.Stdout, bench.ResilienceTable(ts, cfg.probe))
		fmt.Println()
	}
	if want("ablation") {
		fmt.Println("Ablations — design-choice costs:")
		rows, err := bench.AblationTable(ctx, 2000)
		if err != nil {
			return err
		}
		bench.WriteAblationTable(os.Stdout, rows)
		fmt.Println()
	}
	if want("stores") {
		fmt.Println("Storage engines — slice (reference) vs indexed (default), mixed arities:")
		var sizes []int
		if cfg.storeSizes != "" {
			if sizes, err = parseInts(cfg.storeSizes); err != nil {
				return fmt.Errorf("-store-sizes: %w", err)
			}
		}
		rows, err := bench.StoresTable(sizes)
		if err != nil {
			return err
		}
		bench.WriteStoresTable(os.Stdout, rows)
		fmt.Println()
	}
	if want("agreement") {
		fmt.Println("Agreement layer — batched vs unbatched ordering, read-only vs ordered reads (in-proc):")
		rows, err := bench.AgreementTable(ctx, cfg.agree)
		if err != nil {
			return err
		}
		bench.WriteAgreementTable(os.Stdout, rows)
		if cfg.agreeJSON != "" {
			if err := bench.WriteAgreementJSON(cfg.agreeJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.agreeJSON)
		}
		fmt.Println()
	}
	if want("shards") {
		fmt.Println("Sharded space — read throughput under concurrent writers (space core + in-proc cluster):")
		if cfg.shardCounts != "" {
			if cfg.shards.Shards, err = parseInts(cfg.shardCounts); err != nil {
				return fmt.Errorf("-shard-counts: %w", err)
			}
		}
		rows, err := bench.ShardsTable(ctx, cfg.shards)
		if err != nil {
			return err
		}
		bench.WriteShardsTable(os.Stdout, rows)
		if cfg.shardsJSON != "" {
			if err := bench.WriteShardsJSON(cfg.shardsJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.shardsJSON)
		}
		fmt.Println()
	}
	if want("tx") {
		fmt.Println("Transactions — atomic k-op Submit vs k sequential round trips (in-proc):")
		if cfg.txGroups != "" {
			if cfg.tx.Groups, err = parseInts(cfg.txGroups); err != nil {
				return fmt.Errorf("-tx-groups: %w", err)
			}
		}
		rows, err := bench.TxTable(ctx, cfg.tx)
		if err != nil {
			return err
		}
		bench.WriteTxTable(os.Stdout, rows)
		if cfg.txJSON != "" {
			if err := bench.WriteTxJSON(cfg.txJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.txJSON)
		}
		fmt.Println()
	}
	if want("durable") {
		fmt.Println("Durability — WAL commit throughput per fsync policy, recovery time vs WAL length:")
		if cfg.durWALs != "" {
			if cfg.durable.WALLens, err = parseInts(cfg.durWALs); err != nil {
				return fmt.Errorf("-dur-wals: %w", err)
			}
		}
		rows, err := bench.DurableTable(cfg.durable)
		if err != nil {
			return err
		}
		bench.WriteDurableTable(os.Stdout, rows)
		if cfg.durableJSON != "" {
			if err := bench.WriteDurableJSON(cfg.durableJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.durableJSON)
		}
		fmt.Println()
	}
	if want("latency") {
		fmt.Println("Latency — committed vs tentative replies vs pipelined Submit (in-proc):")
		if cfg.latGroups != "" {
			if cfg.latency.Groups, err = parseInts(cfg.latGroups); err != nil {
				return fmt.Errorf("-lat-groups: %w", err)
			}
		}
		rows, err := bench.LatencyTable(ctx, cfg.latency)
		if err != nil {
			return err
		}
		bench.WriteLatencyTable(os.Stdout, rows)
		if cfg.latencyJSON != "" {
			if err := bench.WriteLatencyJSON(cfg.latencyJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.latencyJSON)
		}
		fmt.Println()
	}
	if want("transport") {
		fmt.Println("Transport — coalesced vs per-frame writes, vote p99 under a concurrent bulk stream (loopback TCP):")
		rows, err := bench.TransportTable(ctx, cfg.transport)
		if err != nil {
			return err
		}
		bench.WriteTransportTable(os.Stdout, rows)
		if cfg.transportJSON != "" {
			if err := bench.WriteTransportJSON(cfg.transportJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.transportJSON)
		}
		fmt.Println()
	}
	if want("partitions") {
		fmt.Println("Partitions — aggregate write throughput per group count, 2PC cost, same-budget baseline (in-proc):")
		if cfg.partGroups != "" {
			if cfg.partitions.Groups, err = parseInts(cfg.partGroups); err != nil {
				return fmt.Errorf("-part-groups: %w", err)
			}
		}
		rows, err := bench.PartitionsTable(ctx, cfg.partitions)
		if err != nil {
			return err
		}
		bench.WritePartitionsTable(os.Stdout, rows)
		if cfg.partitionsJSON != "" {
			if err := bench.WritePartitionsJSON(cfg.partitionsJSON, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", cfg.partitionsJSON)
		}
		fmt.Println()
	}
	if want("kvalued") {
		fmt.Println("E3 — k-valued bound n ≥ (k+1)t+1 (Thms. 3-4), t = 1:")
		bench.WriteKValuedTable(os.Stdout, bench.KValuedTable(ks, []int{1}, cfg.probe))
		fmt.Println()
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d must be ≥ 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}
