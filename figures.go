package iroram

import (
	"strings"

	"iroram/internal/experiments"
)

// figures is every experiment Experiment runs, in paper order.
var figures = []struct {
	name string
	run  func(ExperimentOptions) (*Table, error)
}{
	{"table2", experiments.Table2},
	{"fig2", experiments.Fig2},
	{"fig3", experiments.Fig3},
	{"fig4", experiments.Fig4},
	{"fig5", experiments.Fig5},
	{"fig6", experiments.Fig6},
	{"fig7", experiments.Fig7},
	{"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11},
	{"fig12", experiments.Fig12},
	{"fig13", experiments.Fig13},
	{"fig14", experiments.Fig14},
	{"fig15", experiments.Fig15},
	{"fig16", experiments.Fig16},
	{"notp", experiments.NoTimingProtection},
	{"energy", experiments.Energy},
	{"corun", experiments.CoRun},
	{"futurework", experiments.FutureWork},
	{"ring", experiments.Ring},
	{"ablation-sstash", experiments.SStashAssocAblation},
	{"ablation-interval", experiments.IntervalAblation},
	{"ablation-mlp", experiments.MLPAblation},
	{"ablation-plb", experiments.PLBAblation},
}

// FigureNames lists the experiment names Experiment accepts, in paper order.
var FigureNames = func() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}()

// Experiment regenerates one paper table or figure, named by one of
// FigureNames, at the given scale. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for recorded paper-vs-measured values.
func Experiment(name string, opts ExperimentOptions) (*Table, error) {
	for _, f := range figures {
		if f.name == name {
			// Artifact records emitted by the driver are labelled with the
			// experiment name it ran under.
			opts.Figure = name
			return f.run(opts)
		}
	}
	return nil, &UnknownExperimentError{Name: name}
}

// UnknownExperimentError reports an unrecognized experiment name.
type UnknownExperimentError struct{ Name string }

// Error spells out the unknown name and the valid ones.
func (e *UnknownExperimentError) Error() string {
	return "iroram: unknown experiment " + e.Name + " (valid: " +
		strings.Join(FigureNames, ", ") + ")"
}

// SearchZProfile runs the greedy IR-Alloc bucket-size search of Section
// IV-B at the given scale and returns the chosen profile with a compact
// description.
func SearchZProfile(opts ExperimentOptions) (ZProfile, string, error) {
	prof, err := experiments.ZSearch(opts)
	if err != nil {
		return nil, "", err
	}
	return prof, experiments.DescribeProfile(prof, opts.Base.ORAM.TopLevels), nil
}
