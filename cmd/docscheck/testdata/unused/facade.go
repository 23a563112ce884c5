// Package fixture is the facade of the unused-code fixture: its exports
// are the public API, so the rule does not ask for callers.
package fixture

// Exported has no caller, as a facade export may.
func Exported() {}
