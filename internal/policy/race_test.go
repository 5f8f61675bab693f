//go:build race

package policy

// raceEnabled reports that the race detector is on. Under -race,
// sync.Pool.Put drops a random share of the items it is given, so the
// pins that count allocations through a pool skip there.
const raceEnabled = true
