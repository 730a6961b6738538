// Largescale: disseminate an image to a 10,000-node random-disk network —
// two orders of magnitude beyond the paper's 15x15 grids — using the
// large-run machinery: the calendar event queue, compact per-node RNG
// state, and dense node-indexed metrics.
//
// Progress streams every simulated minute so the multi-hop wavefront is
// visible: completions ripple outward from the base station at the field
// center-left, and the run ends when the last node at the far corner
// verifies its final page.
//
// Usage: largescale [-nodes N] [-kb N] [-degree D] [-queue heap|calendar]
package main

import (
	"flag"
	"fmt"
	"log"

	"lrseluge"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 10000, "network size (node 0 is the base station)")
		kb     = flag.Int("kb", 8, "image size in KiB")
		degree = flag.Float64("degree", 16, "target average node degree")
		queue  = flag.String("queue", "calendar", "event queue: heap or calendar")
		seed   = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()

	q := lrseluge.CalendarQueue
	if *queue == "heap" {
		q = lrseluge.HeapQueue
	}

	fmt.Printf("LR-Seluge on a %d-node random-disk network (target degree %.0f), %d KiB image, %s queue\n\n",
		*nodes, *degree, *kb, q)

	rep, err := lrseluge.RunScale(lrseluge.ScaleConfig{
		Nodes:        *nodes,
		TargetDegree: *degree,
		ImageKB:      *kb,
		Seed:         *seed,
		Queue:        q,
		Progress: func(s lrseluge.ScaleSnapshot) {
			fmt.Printf("  t=%10.0fs  completed %6d  events %9d  (wall %v)\n",
				s.Now.Seconds(), s.Completed, s.Events, s.WallElapsed.Round(1000000))
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %v\n", "completed", rep.Completed)
	fmt.Printf("%-22s %.1f s (virtual)\n", "dissemination latency", rep.LatencySec)
	fmt.Printf("%-22s %.1f\n", "avg degree", rep.AvgDegree)
	fmt.Printf("%-22s %d ms (real)\n", "wall time", rep.WallMS)
	fmt.Printf("%-22s %.0f\n", "events/sec", rep.EventsPerSec)
	fmt.Printf("%-22s %.0f B\n", "bytes/node", rep.BytesPerNode)
	if rep.PeakRSSKB > 0 {
		fmt.Printf("%-22s %.1f MiB\n", "peak RSS", float64(rep.PeakRSSKB)/1024)
	}
}
