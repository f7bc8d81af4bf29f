// Command bench is the repository's benchmark: it builds cmd/isqld from
// the checkout, starts the real binary on a generated census catalog,
// drives it closed-loop from concurrent HTTP clients, checks every
// answer, kills it, restarts it and checks that no acknowledged write
// is gone. README.md describes the workloads and every metric;
// ../BENCHMARK.json names them with their units and bounds.
//
//	go run -C bench . [-workload a,b] [-seed n] [-seconds n] [-trace 0|1|both] [-repeat n] [-out file.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: it is the
// one place that names metrics, units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// metricValue is a metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a one-run invocation.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is what -out holds: where and how the runs were made, and
// every run with every metric by name.
type document struct {
	Commit    string       `json:"commit"`
	GoVersion string       `json:"go_version"`
	NProc     int          `json:"nproc"`
	Clients   int          `json:"clients"`
	BuildS    float64      `json:"build_s"`
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
	Runs      []*runRecord `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	names := flag.String("workload", "", "comma-separated workloads (default: all)")
	seed := flag.Int64("seed", 1, "seed of the catalog and of every client's request stream")
	seconds := flag.Float64("seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; both")
	repeat := flag.Int("repeat", 1, "run every workload n times on seeds seed..seed+n-1 and check each end-to-end spread against its bound")
	out := flag.String("out", "", "also write every run, with units and directions, to this JSON file")
	flag.Parse()

	root, err := filepath.Abs("..")
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
			if i < 0 {
				return fatal(fmt.Errorf("unknown workload %q", name))
			}
			selected = append(selected, workloads[i])
		}
	}
	if (*trace != "0" && *trace != "1" && *trace != "both") || *repeat < 1 || *seconds <= 0 {
		flag.Usage()
		return 2
	}

	jan := &janitor{procs: map[*exec.Cmd]bool{}}
	defer jan.sweep()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		jan.sweep()
		os.Exit(130)
	}()

	h := &harness{jan: jan, root: root, scratch: filepath.Join(root, ".bench_build"), clients: min(runtime.NumCPU(), 2)}
	h.bin = filepath.Join(h.scratch, "isqld")
	build, err := buildServer(root, h.bin)
	if err != nil {
		return fatal(err)
	}
	doc := &document{Commit: commit(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Clients: h.clients,
		BuildS: build.Seconds(), EndToEnd: spec.EndToEnd, PerLayer: spec.PerLayer}
	fmt.Fprintf(os.Stderr, "bench: commit %s, %s, nproc %d, %d clients, isqld built in %.1fs\n",
		doc.Commit, doc.GoVersion, doc.NProc, doc.Clients, doc.BuildS)

	window := time.Duration(*seconds * float64(time.Second))
	status := 0
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			for _, mode := range []struct {
				flag  string
				specs []metricSpec
				run   func(workload, int64, time.Duration) (*runRecord, error)
			}{{"0", spec.EndToEnd, h.runUntraced}, {"1", spec.PerLayer, h.runTraced}} {
				if *trace != "both" && *trace != mode.flag {
					continue
				}
				rec, err := mode.run(w, *seed+int64(i), window)
				if err != nil {
					return fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				doc.Runs = append(doc.Runs, rec)
				report(os.Stderr, rec, mode.specs)
				line, err := contractLine(rec, mode.specs)
				if err != nil {
					return fatal(err)
				}
				fmt.Println(line)
				if rec.Lost > 0 {
					status = 1 // an acknowledged write is gone: the run is invalid
				}
			}
		}
	}
	if *repeat > 1 && !spreadsWithinBounds(os.Stderr, doc.Runs, spec.EndToEnd) {
		status = 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fatal(err)
		}
	}
	return status
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// commit names the checkout's commit, when it is a git repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// contractLine renders a run as the one JSON object the driver reads:
// exactly the metrics BENCHMARK.json lists for the trace mode.
func contractLine(rec *runRecord, specs []metricSpec) (string, error) {
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := rec.Metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("metric %s of BENCHMARK.json was not measured", s.Name)
		}
		line.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	if len(line.Metrics) != len(rec.Metrics) {
		return "", fmt.Errorf("%d metrics measured, BENCHMARK.json lists %d", len(rec.Metrics), len(line.Metrics))
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// report prints one run as a table for people.
func report(w *os.File, rec *runRecord, specs []metricSpec) {
	fmt.Fprintf(w, "\n%s  seed %d  trace %d  %gs  %d requests, %d failed, %d lost writes\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Attempted, rec.Failed, rec.Lost)
	if rec.FirstErr != "" {
		fmt.Fprintf(w, "  first error: %s\n", rec.FirstErr)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, s := range specs {
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\t(%s is better)\n", s.Name, rec.Metrics[s.Name], s.Unit, s.Better)
	}
	if len(rec.Spans) > 0 {
		fmt.Fprintf(tw, "  span\tcount\tself ms\tself µs each\n")
		names := make([]string, 0, len(rec.Spans))
		for n := range rec.Spans {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return rec.Spans[names[i]].SelfNs > rec.Spans[names[j]].SelfNs })
		for _, n := range names {
			st := rec.Spans[n]
			fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.1f\n", n, st.Count, float64(st.SelfNs)/1e6, float64(st.SelfNs)/1e3/float64(st.Count))
		}
	}
	tw.Flush()
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them, which is how the
// driver measures spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadsWithinBounds prints, per workload and end-to-end metric, the
// values of every repeat and their interquartile spread as a share of
// the median, and reports whether each stayed within its bound.
func spreadsWithinBounds(w *os.File, runs []*runRecord, specs []metricSpec) bool {
	values := map[string][]float64{} // workload/metric → one value per repeat
	var order []string
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		for _, s := range specs {
			key := r.Workload + "/" + s.Name
			if values[key] == nil {
				order = append(order, key)
			}
			values[key] = append(values[key], r.Metrics[s.Name])
		}
	}
	ok := true
	fmt.Fprintf(w, "\nspread over repeats (interquartile range / median) against the bound\n")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, key := range order {
		v := values[key]
		if len(v) < 2 {
			continue
		}
		var bound float64
		for _, s := range specs {
			if strings.HasSuffix(key, "/"+s.Name) {
				bound = s.Bound
			}
		}
		q1, q3 := quartiles(v)
		spread := (q3 - q1) / median(v)
		verdict := "ok"
		// The driver does not hold set-up time's spread to its bound.
		if spread > bound && !strings.HasSuffix(key, "/setup_s") {
			verdict, ok = "EXCEEDS", false
		}
		fmt.Fprintf(tw, "  %s\t%.4f\t%.2f\t%s\t%v\n", key, spread, bound, verdict, v)
	}
	tw.Flush()
	return ok
}
