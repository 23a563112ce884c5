package core

var _ = helper()

func init() { drainAll(ring{}) }
