package main

import "fixture/core"

func main() { new(core.Controller).Measured() }
