package core

// Controller carries the fixture's methods.
type Controller struct{}

// ContextSwitch has no caller but is allow-listed.
func (c *Controller) ContextSwitch() {}

// OnlyTested is called from core_test.go alone, and from the skipped
// testdata/ and .bench_build/ directories: the one name the rule flags.
func (c *Controller) OnlyTested() {}

// Measured is called only from benchmark/.
func (c *Controller) Measured() {}

// helper is called from sibling.go.
func helper() int { return 1 }

// Store is the interface Drain is called through.
type Store interface{ Drain() }

type ring struct{}

// Drain is reached only through Store.
func (ring) Drain() {}

func drainAll(s Store) { s.Drain() }
