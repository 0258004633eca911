package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"syscall"

	"peats/internal/buildinfo"
)

// host says where a report's numbers come from.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	DataFS     string `json:"data_dir_filesystem"`
	Note       string `json:"note"`
}

// runRecord is one run of one workload inside a report.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	result
}

// report is the file -report appends to and -compare reads.
type report struct {
	Host host        `json:"host"`
	Runs []runRecord `json:"runs"`
}

func (h host) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, commit %s, data on %s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Commit, h.DataFS)
}

func hostStamp(dataDir string) host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: buildinfo.Read().Revision, DataFS: "unknown",
		Note: "four replicas and two client connections in one process; links are kernel loopback with no injected delay, " +
			"so latency is processor time plus the 2ms batch, 2ms group-commit and 100ms/500ms failure timers",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		names := map[int64]string{
			0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
			0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
		}
		h.DataFS = fmt.Sprintf("0x%x", int64(st.Type))
		if name, ok := names[int64(st.Type)]; ok {
			h.DataFS = name
		}
	}
	return h
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// appendReport adds one run to the report at path, creating it with
// this host's stamp when it does not exist yet.
func appendReport(path, workload string, o options, res result) error {
	r, err := readReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = report{Host: hostStamp(o.dir)}, nil
	}
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, runRecord{Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, result: res})
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareReports prints, for every workload and end-to-end metric, the
// medians of the untraced runs in reports a and b, how much worse b is
// as a share of a's median, the metric's bound, and a verdict:
//
//	ok          b is no worse than a by more than the bound
//	worse       it is, or runs of b failed operations
//	unresolved  either side's own runs spread (interquartile range over
//	            median) wider than the bound, so the bound cannot be read
//
// It reports whether any verdict was worse.
func compareReports(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: %s  (%s)\nb: %s  (%s)\n", pathA, a.Host, pathB, b.Host)
	fmt.Fprintf(out, "%-12s %-14s %5s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "worse by", "bound", "spread a", "spread b", "verdict")
	anyWorse := false
	for _, s := range specs {
		failed := 0
		for _, r := range b.Runs {
			if r.Workload == s.name && !r.Correct {
				failed++
			}
		}
		for _, d := range endToEndDefs {
			va, vb := a.values(s.name, d.name), b.values(s.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worseBy := (mb - ma) / ma
			if d.better == "higher" {
				worseBy = -worseBy
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case failed > 0:
				verdict = fmt.Sprintf("worse (%d runs of b failed operations)", failed)
			case max(sa, sb) > d.bound:
				verdict = "unresolved"
			case worseBy > d.bound:
				verdict = "worse"
			}
			anyWorse = anyWorse || strings.HasPrefix(verdict, "worse")
			fmt.Fprintf(out, "%-12s %-14s %2d/%-2d %14.3f %14.3f %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				s.name, d.name, len(va), len(vb), ma, mb, 100*worseBy, 100*d.bound, 100*sa, 100*sb, verdict)
		}
	}
	return anyWorse, nil
}

// values lists one end-to-end metric over the report's untraced runs
// of one workload.
func (r report) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if v, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}
