// Command deadlock runs the full deadlock-freedom analysis of the library
// on a routing algorithm: properties, channel dependency graph, cycle
// decomposition into candidate Definition 6 configurations, Section 5
// classification, and optional exhaustive verification with the
// state-space model checker. On a paper network -verify searches the
// paper's adversarial message set; on any other network it cross-checks
// every decomposed configuration's single-instance scenario instead.
//
// With -liveness (paper networks only) the liveness engine additionally
// decides local deadlock and livelock: a Definition 6 cycle that kills only
// a subnetwork is reported with its exact blocked channel set, and a
// stale-selection livelock with a replayable stem+loop lasso witness.
//
// Examples:
//
//	deadlock -paper figure1 -verify
//	deadlock -paper gen3 -verify -stall 3
//	deadlock -paper figure2 -liveness
//	deadlock -topo uring -dims 4 -alg bfs -verify
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mcheck"
	"repro/internal/papernets"
	"repro/internal/routing"
)

func main() {
	var (
		paper   = flag.String("paper", "", "paper network: figure1, figure2, figure3a..f, gen<k>")
		topo    = flag.String("topo", "mesh", "topology (when -paper is empty)")
		dims    = flag.String("dims", "4x4", "dimensions")
		vcs     = flag.Int("vcs", 1, "virtual channels per link")
		algf    = flag.String("alg", "dor", "routing algorithm")
		verify  = flag.Bool("verify", false, "verify the verdict with the exhaustive model checker")
		livens  = flag.Bool("liveness", false, "also run the liveness engine: local-deadlock and livelock search (requires -paper)")
		stall   = flag.Int("stall", 0, "adversarial stall budget for -verify (Section 6 clock-skew model)")
		workers = flag.Int("workers", 0, "search worker goroutines (0 = GOMAXPROCS; the verdict is identical for every value)")
	)
	obsvF := cli.RegisterObsvFlags().WithTrace().WithProgress()
	redF := cli.RegisterReductionFlag()
	visF := cli.RegisterVisitedFlags()
	flag.Parse()
	red := cli.Reduction(*redF)
	visited, err := visF.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *stall < 0 {
		fmt.Fprintf(os.Stderr, "deadlock: -stall %d: the stall budget must be at least 0\n", *stall)
		os.Exit(2)
	}
	if *livens && *paper == "" {
		log.Fatal("deadlock: -liveness needs -paper (a concrete scenario for the liveness engine to search)")
	}

	var alg routing.Algorithm
	var pn *papernets.Net
	if *paper != "" {
		var err error
		pn, err = cli.PaperNet(*paper)
		if err != nil {
			log.Fatal(err)
		}
		alg = pn.Alg
	} else {
		var err error
		alg, _, err = cli.Build(*topo, *algf, *dims, *vcs)
		if err != nil {
			log.Fatal(err)
		}
	}

	obsName := *paper
	if obsName == "" {
		obsName = *topo + "/" + *algf
	}
	obs, err := obsvF.Open("deadlock "+obsName, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer obs.Close()

	searchOpts := obs.SearchOptions(obsName, mcheck.SearchOptions{
		StallBudget:         *stall,
		FreezeInTransitOnly: true,
		Parallelism:         *workers,
		Reduction:           red,
		Visited:             visited,
	})
	copts := core.Options{}
	if *verify && pn == nil {
		// Without a paper message set, verify each decomposed
		// configuration's own scenario through the analyzer. Complex
		// nonminimal algorithms can decompose into many configurations,
		// so cap each search to keep the command interactive; a capped
		// run reports verdict "exhausted" rather than a certificate.
		cfgOpts := searchOpts
		cfgOpts.MaxStates = 250_000
		copts.Search = &cfgOpts
	}
	rep := core.Analyze(alg, copts)
	fmt.Printf("algorithm:  %s\n", rep.Algorithm)
	fmt.Printf("properties: %s\n", rep.Properties)
	fmt.Printf("CDG:        %d dependencies, acyclic=%v\n", rep.CDGEdges, rep.Acyclic)
	if rep.Screen != "" {
		fmt.Printf("screen:     %s (Corollaries 1-3)\n", rep.Screen)
	}
	for i, cyc := range rep.Cycles {
		fmt.Printf("cycle %d:    len %d, verdict %s, %d configuration(s)\n", i+1, len(cyc.Cycle), cyc.Verdict, len(cyc.Configs))
		for j, cfg := range cyc.Configs {
			fmt.Printf("  config %d: %s — %s\n", j+1, cfg.Verdict, cfg.Reason)
			for k := range cfg.Config.Len() {
				m := cfg.Config.Member(k)
				fmt.Printf("    member %d -> %d: approach %d channels, arc %d channels\n",
					m.Src, m.Dst, len(m.Approach), len(m.Arc))
			}
			if cfg.Witness != nil {
				fmt.Printf("    witness: cs order %v, times %v\n", cfg.Witness.SharedOrder, cfg.Witness.Times)
			}
			if cfg.SearchResult != nil {
				fmt.Printf("    model checker: %s over %d states (%.0f states/sec, peak visited %d)\n",
					cfg.SearchResult.Verdict, cfg.SearchResult.States,
					cfg.SearchResult.StatesPerSec, cfg.SearchResult.PeakVisited)
			}
		}
	}
	fmt.Printf("verdict:    %s\n", rep.Verdict)
	fmt.Printf("reason:     %s\n", rep.Reason)

	if *verify && pn != nil {
		res := mcheck.Search(pn.Scenario, searchOpts)
		obs.SearchDone(obsName, pn.Scenario, res)
		fmt.Printf("verify:     model checker says %s over %d states (stall budget %d)\n",
			res.Verdict, res.States, *stall)
		fmt.Printf("            %.0f states/sec, peak visited %d, %d worker(s), %s\n",
			res.StatesPerSec, res.PeakVisited, res.Workers, res.Elapsed.Round(time.Millisecond))
		v := res.Visited
		switch v.Backend {
		case "spill":
			fmt.Printf("            visited %s: %s resident, %s in %d run(s) on disk (%d compactions)\n",
				v.Backend, cli.FormatBytes(v.Bytes), cli.FormatBytes(v.SpillBytes), v.SpillRuns, v.Compactions)
		default:
			fmt.Printf("            visited %s: %s resident, peak shard %d entries\n",
				v.Backend, cli.FormatBytes(v.Bytes), v.PeakShardEntries)
		}
		if res.Reduction != mcheck.RedNone {
			fmt.Printf("            reduction %s: %d candidates pruned, %d sleep-set states, symmetry group %d\n",
				res.Reduction, res.StatesPruned, res.SleepSetHits, res.SymmetryGroup)
		}
		for _, w := range res.Warnings {
			fmt.Printf("            warning: %s\n", w)
		}
		if res.Verdict == mcheck.VerdictDeadlock {
			fmt.Printf("            deadlock cycle: %s\n", res.Deadlock)
			fmt.Println("            witness schedule:")
			for cyc, d := range res.Trace {
				if len(d.Activate) == 0 && len(d.Freeze) == 0 && len(d.Picks) == 0 && len(d.Masks) == 0 {
					continue
				}
				fmt.Printf("              cycle %2d:", cyc)
				if len(d.Activate) > 0 {
					fmt.Printf(" inject %v", d.Activate)
				}
				if len(d.Freeze) > 0 {
					fmt.Printf(" stall %v", d.Freeze)
				}
				for ch, id := range d.Picks {
					fmt.Printf(" grant c%d to m%d", ch, id)
				}
				for id, ch := range d.Masks {
					fmt.Printf(" m%d selects c%d", id, ch)
				}
				fmt.Println()
			}
		}
	}

	if *livens && pn != nil {
		res := mcheck.SearchLiveness(pn.Scenario, searchOpts)
		obs.SearchDone(obsName+" liveness", pn.Scenario, res)
		fmt.Printf("liveness:   %s over %d states (stall budget %d, %s)\n",
			res.Verdict, res.States, *stall, res.Elapsed.Round(time.Millisecond))
		for _, w := range res.Warnings {
			fmt.Printf("            warning: %s\n", w)
		}
		switch res.Verdict {
		case mcheck.VerdictLocalDeadlock:
			fmt.Printf("            local deadlock: %s\n", res.Local)
			fmt.Printf("            blocked subnetwork: channels %v are dead forever; messages %v still deliverable\n",
				res.Local.Blocked, res.Local.Live)
		case mcheck.VerdictDeadlock:
			if res.Deadlock != nil {
				fmt.Printf("            global deadlock: %s\n", res.Deadlock)
			}
		case mcheck.VerdictLivelock:
			l := res.Lasso
			fmt.Printf("            livelock lasso: stem %d decisions, loop %d decisions, starved messages %v\n",
				len(l.Stem), len(l.Loop), l.Starved)
			if err := mcheck.VerifyLasso(pn.Scenario, l); err != nil {
				fmt.Printf("            lasso verification FAILED: %v\n", err)
			} else {
				fmt.Println("            lasso verified: the loop reproduces its head and no starved message ever advances")
			}
		}
	}
}
