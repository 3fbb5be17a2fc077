// Scheduler exploration: is contention-aware flow placement worth it?
//
// The paper's Section 5 answer: barely. This example evaluates every
// distinct placement of 6 MON + 6 FW flows (the combination with the
// largest best-to-worst gap) and shows that even the worst placement
// costs only a few percent of overall performance versus the best.
package main

import (
	"fmt"
	"log"

	"pktpredict/internal/exp"
)

func main() {
	scale := exp.Full()
	scale.Warmup, scale.Window = 0.003, 0.008

	combo := exp.DefaultCombos()[:1] // 6MON+6FW, the paper's Figure 10(b)
	fmt.Println("evaluating all distinct placements of 6 MON + 6 FW on 2 sockets...")
	res, err := exp.RunFig10(scale.NewPredictor(), combo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s(paper: ~2%% contention-aware scheduling gain)\n", res.Table())
}
