// Command fractos-bench regenerates the paper's evaluation: every
// table and figure of §6 plus the DESIGN.md ablations, printed as text
// tables from deterministic simulations.
//
// Usage:
//
//	fractos-bench               # run everything
//	fractos-bench -list         # list experiment ids
//	fractos-bench -run fig5     # run one experiment
//	fractos-bench -csv out/     # also write each table as CSV
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fractos/internal/exp"
)

var csvDir = flag.String("csv", "", "also write each table as CSV into this directory")

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "run a single experiment by id")
	flag.Parse()

	if *list {
		for _, s := range exp.All() {
			fmt.Printf("%-14s %s\n", s.ID, s.Title)
		}
		return
	}
	if *run != "" {
		s, ok := exp.Find(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "fractos-bench: unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		runOne(s)
		return
	}
	fmt.Println("FractOS evaluation — regenerating every table and figure (virtual-time simulation)")
	for _, s := range exp.All() {
		runOne(s)
	}
}

// runOne runs one experiment and prints its table; a failure to write
// the CSV copy ends the command with status 1.
func runOne(s exp.Spec) {
	start := time.Now()
	t := s.Run()
	t.Print(os.Stdout)
	fmt.Printf("  [%s regenerated in %.1fs wall time]\n", s.ID, time.Since(start).Seconds())
	if *csvDir == "" {
		return
	}
	var csv bytes.Buffer
	t.WriteCSV(&csv)
	err := os.MkdirAll(*csvDir, 0o755)
	if err == nil {
		err = os.WriteFile(filepath.Join(*csvDir, s.ID+".csv"), csv.Bytes(), 0o666)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fractos-bench:", err)
		os.Exit(1)
	}
}
