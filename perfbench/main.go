// Command perfbench is the repository's benchmark: it serves a CCAM
// store exactly as ccam-serve deploys it, drives it over the binary
// protocol with closed-loop clients, checks every answer against the
// generated network, and prints end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-point --seed 1 --seconds 10 --trace 0
//
// Workloads, their op mixes and the reasons for each bound are recorded
// in README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds build outputs and the run's stores, inside the
// directory the benchmark runs from.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = make(map[string]metric)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds one connection's tally into the outcome.
func (o *outcome) count(t *tally) {
	o.Attempted += t.attempted
	o.Failed += t.failed
	if t.firstErr != nil {
		fmt.Printf("first failure: %v\n", t.firstErr)
	}
}

// params are the command-line arguments.
type params struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	// root is this run's scratch directory under workDir.
	root string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: hot-point, cold-query or mixed-write")
		seed    = flag.Int64("seed", 1, "workload seed (the request stream; the map is fixed)")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end loop")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	removeStale()
	root, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The stores live under root; remove it on every exit path,
	// including an interrupt.
	defer os.RemoveAll(root)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(root)
		os.Exit(1)
	}()

	p := params{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: root}
	printProvenance(p)
	var out outcome
	if p.trace {
		err = runTraced(p, &out)
	} else {
		err = runEndToEnd(p, &out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// removeStale deletes run directories that a killed run left behind,
// once they are an hour old, so a live concurrent run keeps its own.
func removeStale() {
	old, _ := filepath.Glob(filepath.Join(workDir, "run-*"))
	for _, dir := range old {
		if fi, err := os.Stat(dir); err == nil && time.Since(fi.ModTime()) > time.Hour {
			os.RemoveAll(dir)
		}
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printProvenance prints what the numbers depend on, as one JSON line.
func printProvenance(p params) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fsType, _ := fsTypeOf(p.root)
	prov := map[string]any{
		"commit":        commit,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"workload":      p.w.name,
		"seed":          p.seed,
		"map_seed":      mapSeed,
		"store_fs":      fsType,
		"sync_policy":   "group-commit",
		"pool_pages":    p.w.pool,
		"map_targets":   p.w.targets,
		"connections":   loadConns,
		"loop":          "closed",
		"seconds":       p.seconds,
		"traced":        p.trace,
		"page_size":     2048,
		"setup_repeats": setupReps,
	}
	b, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// fsTypeOf names the filesystem holding dir.
func fsTypeOf(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", err
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0x794c7630:
		return "overlayfs", nil
	case 0xef53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683e:
		return "btrfs", nil
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), nil
}

// timerLateUS measures how late a 50 µs sleep returns on this machine
// (median of 200). It is why the workloads are closed loops: a
// generator cannot pace an open loop below this without spinning a
// core.
func timerLateUS() float64 {
	const want = 50 * time.Microsecond
	late := make([]float64, 200)
	for i := range late {
		t := time.Now()
		time.Sleep(want)
		late[i] = float64((time.Since(t) - want).Nanoseconds()) / 1e3
	}
	return median(late)
}

func dirFor(p params, tag string) string { return filepath.Join(p.root, tag) }
