// skewtolerance runs the paper's Section 6 experiment end to end on the
// family papernets.GenK builds: for each k it measures, by exact
// state-space search, the smallest total budget of adversarial stall
// cycles that turns the false resource cycle into a real deadlock. For
// this family that minimum is min(k, 5): it equals k up to k = 5 and then
// stays at 5, because the adversary can split the delay across the two
// long-approach messages.
package main

import (
	"flag"
	"fmt"

	"repro/internal/mcheck"
	"repro/internal/papernets"
)

func main() {
	maxK := flag.Int("maxk", 4, "largest k to measure")
	flag.Parse()

	fmt.Println("Gen(k): d1=d3=2, d2=d4=k+2, c1=c3=k+2, c2=c4=k+3, l_i=c_i")
	fmt.Println()
	fmt.Println("  k | states at minimum | minimal total stall | min(k, 5)")
	for k := 1; k <= *maxK; k++ {
		pn := papernets.GenK(k)
		minimal := -1
		states := 0
		for b := 0; b <= k+2; b++ {
			res := mcheck.Search(pn.Scenario, mcheck.SearchOptions{
				StallBudget:         b,
				FreezeInTransitOnly: true,
				MaxStates:           50_000_000,
			})
			states = res.States
			if res.Verdict == mcheck.VerdictDeadlock {
				minimal = b
				break
			}
		}
		fmt.Printf("  %d | %16d | %19d | %9d\n", k, states, minimal, min(k, 5))
	}
	fmt.Println()
	fmt.Println("the search explores every injection timing, arbitration choice and")
	fmt.Println("placement of the stall budget, so the unreachable cycle survives any")
	fmt.Println("total stall below the minimum. For this family the minimum equals k")
	fmt.Println("only up to k = 5 (-maxk 6 shows the plateau), so it tolerates min(k, 5)")
	fmt.Println("total stall cycles, not a skew that grows without bound in k.")
}
