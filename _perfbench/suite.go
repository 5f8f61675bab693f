package main

import (
	"fmt"
	"math/rand"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// suiteApp is one Table IV application with its Turbo Core baseline
// and the Eq. 1 performance target derived from it.
type suiteApp struct {
	app    workload.App
	base   *sim.Result
	target sim.Target
}

// loadSuite runs the Turbo Core baselines for the 15-app suite, in
// suite order.
func loadSuite(eng *sim.Engine) ([]suiteApp, error) {
	apps := workload.Benchmarks()
	out := make([]suiteApp, len(apps))
	for i := range apps {
		base, target, err := eng.Baseline(&apps[i])
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", apps[i].Name, err)
		}
		out[i] = suiteApp{app: apps[i], base: base, target: target}
	}
	return out, nil
}

// kernelsPerPass is the number of decisions one pass over the suite
// makes: one per kernel invocation of every app.
func kernelsPerPass(suite []suiteApp) int {
	n := 0
	for _, s := range suite {
		n += s.app.Len()
	}
	return n
}

// appOrders draws the seeded app order of every pass: orders[pass] is
// a permutation of the suite indices. The seed permutes the order only;
// the set of app runs a pass makes is the same for every seed.
func appOrders(seed int64, passes, apps int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, passes)
	for p := range out {
		out[p] = rng.Perm(apps)
	}
	return out
}

// digest is a 64-bit FNV-1a hash over the decisions of app runs.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d digest) word(v uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(v >> (8 * i)))
		d *= 1099511628211
	}
	return d
}

func configWord(c hw.Config) uint64 {
	return uint64(uint8(c.CPU)) | uint64(uint8(c.NB))<<8 | uint64(uint8(c.GPU))<<16 | uint64(uint8(c.CUs))<<24
}

// run folds one app run's decisions (kernel index, configuration,
// predictor evaluations) into the digest.
func (d digest) run(res *sim.Result) digest {
	for _, r := range res.Records {
		d = d.word(uint64(r.Index)).word(configWord(r.Config)).word(uint64(r.Evals))
	}
	return d
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// combine hashes per-app digests in suite order into one run digest.
func combine(perApp []digest) digest {
	d := newDigest()
	for _, a := range perApp {
		d = d.word(uint64(a))
	}
	return d
}

// quality accumulates sim.Compare over app runs, per app, so the suite
// means are formed in suite order whatever order the runs came in.
type quality struct {
	savings, speedup []float64 // per-app sums
	runs             []int
}

func newQuality(apps int) *quality {
	return &quality{savings: make([]float64, apps), speedup: make([]float64, apps), runs: make([]int, apps)}
}

func (q *quality) add(app int, res, base *sim.Result) {
	c := sim.Compare(res, base)
	q.savings[app] += c.EnergySavingsPct
	q.speedup[app] += c.Speedup
	q.runs[app]++
}

// merge adds o's runs into q.
func (q *quality) merge(o *quality) {
	for a := range q.runs {
		q.savings[a] += o.savings[a]
		q.speedup[a] += o.speedup[a]
		q.runs[a] += o.runs[a]
	}
}

// means returns the suite means of the per-app mean energy savings (%)
// and speedup (×) versus Turbo Core.
func (q *quality) means() (savingsPct, speedup float64) {
	n := 0
	for a := range q.runs {
		if q.runs[a] == 0 {
			continue
		}
		savingsPct += q.savings[a] / float64(q.runs[a])
		speedup += q.speedup[a] / float64(q.runs[a])
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return savingsPct / float64(n), speedup / float64(n)
}
