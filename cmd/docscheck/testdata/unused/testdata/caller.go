package testdata

import "fixture/core"

func call() { new(core.Controller).OnlyTested() }
