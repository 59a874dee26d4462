// Command spnet-experiments regenerates the tables and figures of the
// paper's evaluation (Section 5 and Appendices C–E).
//
// Usage:
//
//	spnet-experiments -list
//	spnet-experiments -exp fig4 [-scale 1.0] [-trials 3] [-seed 1]
//	spnet-experiments -exp all -scale 0.2
//	spnet-experiments -exp livereliability -scale 0.1
//	spnet-experiments -exp loadvalidation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spnet"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id, or 'all' (see -list)")
		scale    = flag.Float64("scale", 1.0, "network-size multiplier (1.0 = paper scale)")
		trials   = flag.Int("trials", 0, "trials per configuration (0 = experiment default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "evaluation workers (0 = all cores, 1 = serial); output is identical at any setting")
		list     = flag.Bool("list", false, "list the available experiments")
		csvDir   = flag.String("csv", "", "also write the report's tables and series as CSV files into this directory (streamed per sweep point: interrupted runs keep partial results)")
		progress = flag.Bool("progress", false, "report per-sweep progress on stderr while experiments run")
	)
	flag.Parse()

	if *list || *exp == "" {
		titles := spnet.ExperimentTitles()
		fmt.Println("available experiments:")
		for _, id := range spnet.ExperimentIDs() {
			fmt.Printf("  %-10s %s\n", id, titles[id])
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nselect one with -exp <id> or run everything with -exp all")
			os.Exit(2)
		}
		return
	}

	params := spnet.ExperimentParams{Scale: *scale, Trials: *trials, Seed: *seed, Workers: *workers}
	ids := []string{*exp}
	if *exp == "all" {
		ids = spnet.ExperimentIDs()
	}
	failed := false
	for _, id := range ids {
		var prog func(stage string, done, total int)
		if *progress {
			id := id
			prog = func(stage string, done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %s %d/%d", id, stage, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		params.Progress = prog

		// Streaming CSV export: rows land on disk as sweep points complete,
		// so an interrupted run keeps its partial results. The final
		// WriteReportCSV below overwrites them with the identical full table.
		var stream *spnet.ReportCSVStream
		params.RowSink = nil
		if *csvDir != "" {
			var err error
			stream, err = spnet.NewReportCSVStream(id, *csvDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "opening CSV stream for %s: %v\n", id, err)
				failed = true
			} else {
				params.RowSink = stream.Row
			}
		}

		start := time.Now()
		rep, err := spnet.RunExperiment(id, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed = true
			if stream != nil {
				stream.Close()
			}
			continue
		}
		fmt.Print(spnet.FormatReport(rep))

		if stream != nil {
			if _, err := stream.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "streaming CSV for %s: %v\n", id, err)
				failed = true
			}
		}
		if *csvDir != "" {
			paths, err := spnet.WriteReportCSV(rep, *csvDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "writing CSV for %s: %v\n", id, err)
				failed = true
			} else {
				fmt.Printf("(wrote %d CSV files to %s)\n", len(paths), *csvDir)
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
