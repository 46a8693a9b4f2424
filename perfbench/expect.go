package main

// The outputs every op is checked against, recorded with the benchmark.
// A simulator change that moves any of them makes the ops fail; one that
// only changes host time leaves them all in place.

// worker64Expect was recorded with the benchmark.
var worker64Expect = workerStats{Time: 87089, Messages: 153257, Traps: 5120, Events: 288898}

// exhibitDigests are the digests (see digest) of every exhibit's quick
// rendering.
var exhibitDigests = map[string]string{
	"table1":        "b5a729d817fecb08",
	"table2":        "2ec31bce9304b2da",
	"table3":        "087eb6194a685086",
	"fig2":          "95851a0e6d0dc228",
	"fig3":          "b3e84be84285d026",
	"fig4":          "b02c42516d806241",
	"fig5":          "cab5d490e1716ad9",
	"fig6":          "5f3b7cd051122e7d",
	"scaling":       "78f460576056afd0",
	"extrapolation": "5ef60ec4b778e722",
	"tiers":         "28e6efdeba2d142c",
}

// mcGolden holds the goldens' state and transition counts.
var mcGolden = map[string][2]uint64{
	"DirnH0SNB,ACK":  {4639, 7501},
	"DirnH1SNB,ACK":  {3353, 5615},
	"DirnH1SNB,LACK": {3353, 5615},
	"DirnH1SNB":      {3353, 5615},
	"DirnH2SNB":      {3353, 5615},
	"DirnH3SNB":      {3353, 5615},
	"DirnH4SNB":      {3353, 5615},
	"DirnH5SNB":      {3353, 5615},
	"DirnHNBS-":      {3353, 5615},
}
