package core

import "testing"

func TestOnlyTested(t *testing.T) { new(Controller).OnlyTested() }
