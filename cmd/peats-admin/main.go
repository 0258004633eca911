// peats-admin inspects running peats-server replicas through their
// -metrics-addr endpoints:
//
//	peats-admin status 127.0.0.1:9100 127.0.0.1:9101 ...
//	peats-admin metrics -json 127.0.0.1:9100
//	peats-admin top -interval 2s 127.0.0.1:9100 127.0.0.1:9101 ...
//
// status prints one line per replica (view and why the replica last left
// one, executed sequence, stable checkpoint, batches, store shape). metrics dumps one endpoint's
// registry, Prometheus text by default or the JSON snapshot with
// -json. top refreshes a live view: per-replica protocol positions
// plus the hottest counters across the fleet, ranked by rate since the
// previous sample.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"peats/internal/buildinfo"
	"peats/internal/metrics"
)

func main() {
	version := flag.Bool("version", false, "print build version and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		buildinfo.Print("peats-admin")
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "status":
		err = cmdStatus(os.Stdout, rest)
	case "metrics":
		err = cmdMetrics(os.Stdout, rest)
	case "top":
		err = cmdTop(os.Stdout, rest)
	default:
		fmt.Fprintf(os.Stderr, "peats-admin: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "peats-admin:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  peats-admin status [-json] <host:port>...
  peats-admin metrics [-json] <host:port>
  peats-admin top [-interval d] [-n iterations] [-plain] <host:port>...

Endpoints are peats-server -metrics-addr addresses.
`)
}

// replicaStatus mirrors the server's /status document.
type replicaStatus struct {
	Replica  string         `json:"replica"`
	Group    string         `json:"group"`
	View     uint64         `json:"view"`
	LastVC   string         `json:"last_view_change"`
	Executed uint64         `json:"executed"`
	LowWater uint64         `json:"low_water"`
	Batches  uint64         `json:"batches_proposed"`
	Records  int64          `json:"log_records"`
	Policy   string         `json:"policy"`
	Engine   string         `json:"engine"`
	Shards   int            `json:"shards"`
	F        int            `json:"f"`
	Build    buildinfo.Info `json:"build"`
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func fetchStatus(addr string) (replicaStatus, error) {
	var st replicaStatus
	resp, err := httpClient.Get("http://" + addr + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: /status returned %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("%s: %w", addr, err)
	}
	return st, nil
}

func fetchSnapshot(addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := httpClient.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: /metrics returned %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("%s: %w", addr, err)
	}
	return snap, nil
}

// ---- status ----

func cmdStatus(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw status documents")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := fs.Args()
	if len(addrs) == 0 {
		return fmt.Errorf("status: need at least one endpoint")
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		for _, addr := range addrs {
			st, err := fetchStatus(addr)
			if err != nil {
				return err
			}
			if err := enc.Encode(st); err != nil {
				return err
			}
		}
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "REPLICA\tGROUP\tVIEW\tLAST-VIEW-CHANGE\tEXECUTED\tLOW-WATER\tBATCHES\tRECORDS\tSTORE\tBUILD")
	for _, addr := range addrs {
		st, err := fetchStatus(addr)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\tunreachable: %v\n", addr, err)
			continue
		}
		group := st.Group
		if group == "" {
			group = "-"
		}
		lastVC := st.LastVC
		if lastVC == "" {
			lastVC = "-" // a server older than the field
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%s/%d\t%s\n",
			st.Replica, group, st.View, lastVC, st.Executed, st.LowWater,
			st.Batches, st.Records, st.Engine, st.Shards, st.Build.Revision)
	}
	return tw.Flush()
}

// ---- metrics ----

func cmdMetrics(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "dump the JSON snapshot instead of Prometheus text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("metrics: need exactly one endpoint")
	}
	url := "http://" + fs.Arg(0) + "/metrics"
	if *asJSON {
		url += "?format=json"
	}
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", url, resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// ---- top ----

// counterKey identifies one counter series fleet-wide: family name
// plus its sorted non-replica labels.
type counterKey struct {
	family string
	labels string
}

// sample is one scrape of one endpoint, reduced to counter values.
type sample struct {
	status   replicaStatus
	counters map[counterKey]float64
	err      error
}

func scrape(addr string) sample {
	s := sample{counters: make(map[counterKey]float64)}
	s.status, s.err = fetchStatus(addr)
	if s.err != nil {
		return s
	}
	snap, err := fetchSnapshot(addr)
	if err != nil {
		s.err = err
		return s
	}
	for _, f := range snap.Families {
		if f.Kind != "counter" {
			continue
		}
		for _, series := range f.Series {
			var extra []string
			for k, v := range series.Labels {
				if k == "replica" {
					continue
				}
				extra = append(extra, k+"="+v)
			}
			sort.Strings(extra)
			key := counterKey{family: f.Name, labels: strings.Join(extra, ",")}
			s.counters[key] += series.Value
		}
	}
	return s
}

func cmdTop(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	iterations := fs.Int("n", 0, "stop after this many refreshes (0 = run until interrupted)")
	plain := fs.Bool("plain", false, "append refreshes instead of clearing the screen")
	rows := fs.Int("rows", 12, "hottest counters to show")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := fs.Args()
	if len(addrs) == 0 {
		return fmt.Errorf("top: need at least one endpoint")
	}
	prev := make([]sample, len(addrs))
	for i, addr := range addrs {
		prev[i] = scrape(addr)
	}
	for n := 0; *iterations == 0 || n < *iterations; n++ {
		time.Sleep(*interval)
		cur := make([]sample, len(addrs))
		for i, addr := range addrs {
			cur[i] = scrape(addr)
		}
		if !*plain {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		renderTop(w, addrs, prev, cur, *interval, *rows)
		prev = cur
	}
	return nil
}

// renderTop prints the per-replica protocol line and the counters with
// the highest fleet-wide rate since the previous sample.
func renderTop(w io.Writer, addrs []string, prev, cur []sample, interval time.Duration, rows int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "REPLICA\tVIEW\tEXECUTED\tLOW-WATER\tRECORDS")
	for i, addr := range addrs {
		if cur[i].err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\tunreachable: %v\n", addr, cur[i].err)
			continue
		}
		st := cur[i].status
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", st.Replica, st.View, st.Executed, st.LowWater, st.Records)
	}
	tw.Flush()

	// Rank counters by total rate across the fleet.
	type hot struct {
		key  counterKey
		rate float64
	}
	rates := make(map[counterKey]float64)
	perReplica := make(map[counterKey][]float64)
	for i := range addrs {
		if prev[i].err != nil || cur[i].err != nil {
			continue
		}
		for key, v := range cur[i].counters {
			d := (v - prev[i].counters[key]) / interval.Seconds()
			if d < 0 {
				d = 0 // restarted replica: treat as fresh
			}
			rates[key] += d
			if perReplica[key] == nil {
				perReplica[key] = make([]float64, len(addrs))
			}
			perReplica[key][i] = d
		}
	}
	hots := make([]hot, 0, len(rates))
	for key, r := range rates {
		hots = append(hots, hot{key, r})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].rate != hots[j].rate {
			return hots[i].rate > hots[j].rate
		}
		if hots[i].key.family != hots[j].key.family {
			return hots[i].key.family < hots[j].key.family
		}
		return hots[i].key.labels < hots[j].key.labels
	})
	if len(hots) > rows {
		hots = hots[:rows]
	}

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "COUNTER (per second)"
	for i := range addrs {
		name := addrs[i]
		if cur[i].err == nil && cur[i].status.Replica != "" {
			name = cur[i].status.Replica
		}
		header += "\t" + name
	}
	fmt.Fprintln(tw, header+"\tTOTAL")
	for _, h := range hots {
		name := h.key.family
		if h.key.labels != "" {
			name += "{" + h.key.labels + "}"
		}
		line := name
		for i := range addrs {
			if pr := perReplica[h.key]; pr != nil {
				line += fmt.Sprintf("\t%s", formatRate(pr[i]))
			} else {
				line += "\t-"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\n", line, formatRate(h.rate))
	}
	tw.Flush()
}

func formatRate(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
