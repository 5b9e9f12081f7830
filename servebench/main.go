// Command servebench is the repository's serving benchmark. It builds
// nothing itself (run.sh builds edged, semkb and this command from the
// tree); it boots the default deployment as real edged child processes,
// drives one workload against it from a seeded request stream, checks the
// answers, and prints every metric by name and unit, ending with one JSON
// line.
//
//	servebench --bin-dir DIR --work-dir DIR --workload crowd|personal|roam|all \
//	           --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, adding a traced in-process replay of the
// workload's requests. See README.md for the workloads and what each
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" or all")
		seed     = flag.Uint64("seed", 1, "seed of the generated request stream")
		seconds  = flag.Float64("seconds", 22, "measured time of one run, in seconds")
		traceOn  = flag.Int("trace", 0, "1 reports the per-layer metrics, 0 the end-to-end ones")
		binDir   = flag.String("bin-dir", "", "directory holding the edged and semkb binaries")
		workDir  = flag.String("work-dir", "", "scratch directory for model files and span logs")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if _, ok := specs[n]; !ok {
			fmt.Fprintf(os.Stderr, "servebench: unknown workload %q\n", n)
			return 2
		}
	}
	if *binDir == "" || *workDir == "" || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --bin-dir, --work-dir, --seconds > 0 and --trace 0|1")
		return 2
	}

	procs := newProcSet()
	defer procs.shutdown()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "servebench: %v, stopping every child\n", s)
		procs.shutdown()
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(runBudget*time.Duration(len(names)), func() {
		fmt.Fprintln(os.Stderr, "servebench: run budget exceeded, stopping every child")
		procs.shutdown()
		os.Exit(1)
	})
	defer watchdog.Stop()

	code := 0
	for _, n := range names {
		r := &runner{
			procs:   procs,
			bin:     *binDir,
			work:    filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())),
			corp:    corpus.Build(),
			seconds: *seconds,
			trace:   *traceOn == 1,
			metrics: make(map[string]float64),
		}
		rep, err := r.runWorkload(specs[n], *seed)
		os.RemoveAll(r.work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", n, err)
			return 1
		}
		r.print(n, rep)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// print writes the human-readable metric table, the failed checks, and
// the JSON result line.
func (r *runner) print(name string, rep *report) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	fmt.Printf("# workload %s: %d attempted, %d failed (fail_frac %.4f)\n",
		name, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	for _, note := range r.notes {
		fmt.Printf("# %s\n", note)
	}
	for _, d := range defs {
		fmt.Printf("%-28s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	for _, f := range r.failed {
		fmt.Printf("# CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a report holds only finite numbers and strings
	}
	fmt.Println(string(line))
}
