// Command soradash renders flight-recorder timelines (the
// *.timeline.jsonl files written by `sorabench -timeline` and
// `simrun -timeline`) as a single self-contained offline HTML dashboard:
// hand-rolled SVG, no JavaScript, no external assets — open the file in
// any browser or attach it to a bug report.
//
// Usage:
//
//	soradash -out dash.html out/timeline/              # a whole directory
//	soradash -out dash.html chaos_crash.timeline.jsonl # specific files
//
// Each timeline file becomes one section; each unit inside it (e.g. the
// chaos experiment's six app × strategy runs) becomes one panel, laid
// out side by side for strategy comparison. Panels share global x/y
// scales, so bands and areas are comparable across units at a glance.
// Every panel shows the end-to-end latency quantile band (p50-p99), the
// stacked goodput split (good/degraded/violated rates), and per-service
// p99 lines, overlaid with controller-decision markers (hover for the
// decision) and shaded fault windows.
//
// The output is deterministic: identical input bytes produce identical
// HTML, which is what lets the golden test pin the renderer.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sora/internal/compare"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "soradash:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("soradash", flag.ContinueOnError)
	out := fs.String("out", "soradash.html", "output HTML file")
	title := fs.String("title", "Sora flight recorder", "dashboard title")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no inputs: pass timeline files or directories (see -help)")
	}
	paths, err := expandInputs(fs.Args())
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.timeline.jsonl files found")
	}
	var runs []*compare.Run
	for _, p := range paths {
		r, err := compare.LoadTimeline(p)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	html := render(*title, runs)
	return os.WriteFile(*out, []byte(html), 0o644)
}

// expandInputs resolves the argument list: files pass through in
// argument order, directories expand to their *.timeline.jsonl entries
// in sorted name order — both deterministic.
func expandInputs(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".timeline.jsonl") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, filepath.Join(a, n))
		}
	}
	return out, nil
}

// displayName strips the directory and the .timeline.jsonl suffix.
func displayName(p string) string {
	return strings.TrimSuffix(filepath.Base(p), ".timeline.jsonl")
}
