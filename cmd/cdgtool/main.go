// Command cdgtool builds the channel dependency graph of a routing
// algorithm, reports its cycle structure, and optionally emits Graphviz
// DOT.
//
// Examples:
//
//	cdgtool -paper figure1
//	cdgtool -topo torus -dims 4x4 -vcs 2 -alg dallyseitz
//	cdgtool -paper figure1 -dot > fig1.dot
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cdg"
	"repro/internal/cli"
	"repro/internal/obsv/manifest"
	"repro/internal/routing"
)

func main() {
	var (
		paper  = flag.String("paper", "", "paper network: figure1, figure2, figure3a..f, gen<k>")
		topo   = flag.String("topo", "mesh", "topology (when -paper is empty)")
		dims   = flag.String("dims", "4x4", "dimensions")
		vcs    = flag.Int("vcs", 1, "virtual channels per link")
		algf   = flag.String("alg", "dor", "routing algorithm")
		maxCyc = flag.Int("cycles", 16, "max cycles to enumerate (0 = no cap)")
		dot    = flag.Bool("dot", false, "emit the CDG as Graphviz DOT to stdout instead of the summary")
		netdot = flag.Bool("netdot", false, "emit the network topology as Graphviz DOT to stdout")
	)
	obsvF := cli.RegisterObsvFlags()
	flag.Parse()
	cli.ExitUsage(cli.CheckVCs(*vcs))
	if *maxCyc < 0 {
		cli.ExitUsage(fmt.Errorf("cdgtool: -cycles %d: the cap must be at least 0 (0 = no cap)", *maxCyc))
	}

	var alg routing.Algorithm
	if *paper != "" {
		pn, err := cli.PaperNet(*paper)
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

	obs, err := obsvF.Open("cdgtool "+alg.Name(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer obs.Close()

	if *netdot {
		fmt.Fprint(os.Stdout, alg.Network().DOT())
		return
	}
	g := cdg.New(alg)
	acyclic, _ := g.Acyclic()
	sccs := g.SCCs()
	cycles, truncated := g.Cycles(*maxCyc)
	if obs.Metrics != nil {
		obs.Metrics.Gauge("cdg_dependencies").Set(int64(g.NumEdges()))
		obs.Metrics.Gauge("cdg_cycles_found").Set(int64(len(cycles)))
		obs.Metrics.Gauge("cdg_sccs").Set(int64(len(sccs)))
		var acy int64
		if acyclic {
			acy = 1
		}
		obs.Metrics.Gauge("cdg_acyclic").Set(acy)
	}
	obs.RecordRun(manifest.Run{
		Name:         alg.Name(),
		TopologyHash: manifest.TopologyHash(alg.Network()),
	})
	if *dot {
		fmt.Fprint(os.Stdout, g.DOT())
		return
	}
	net := alg.Network()
	fmt.Printf("algorithm: %s\n", alg.Name())
	fmt.Printf("network:   %d nodes, %d channels\n", net.NumNodes(), net.NumChannels())
	fmt.Printf("CDG:       %d dependencies\n", g.NumEdges())
	if acyclic {
		fmt.Println("acyclic:   yes (deadlock-free by Dally-Seitz)")
		return
	}
	fmt.Println("acyclic:   no")
	fmt.Printf("SCCs:      %d nontrivial\n", len(sccs))
	fmt.Printf("cycles:    %d", len(cycles))
	if truncated {
		fmt.Printf(" (truncated at %d)", *maxCyc)
	}
	fmt.Println()
	for i, c := range cycles {
		fmt.Printf("  cycle %d (len %d):", i+1, len(c))
		for _, ch := range c {
			fmt.Printf(" %s", net.Channel(ch))
		}
		fmt.Println()
	}
	fmt.Println("note: a cyclic CDG does not by itself imply deadlock; run cmd/deadlock for the full Section 5 analysis")
}
