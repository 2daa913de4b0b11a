package bench

import "fmt"

// experiments is the one list of what crbench can run, in the order "all"
// prints it: the paper's Section 6 first (the table IDs of
// results/small.md), then the experiments that have no counterpart in the
// repository benchmark (benchmark/). Names, Run and All derive from it.
var experiments = []struct {
	name string
	run  func(*Env) ([]*Table, error)
}{
	{"table3", func(env *Env) ([]*Table, error) { return []*Table{Table3(env)}, nil }},
	{"ontostats", func(env *Env) ([]*Table, error) { return []*Table{OntoStats(env)}, nil }},
	{"fig6", func(env *Env) ([]*Table, error) { return Fig6(env), nil }},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"examined", tables(Examined)},
	{"dedup", tables(AblationDedup)},
	{"queue", tables(AblationQueueLimit)},
	{"skip", tables(AblationSkipCovered)},
	{"store", tables(AblationStore)},
	{"ta", tables(TAExperiment)},
	{"parallel", tables(ParallelScan)},
	{"cursor", tables(CursorResume)},
	{"pairs", tables(PairJoin)},
	{"measures", tables(MeasureSweep)},
}

// tables adapts single-table experiments to the registry's signature,
// running them in order.
func tables(fns ...func(*Env) (*Table, error)) func(*Env) ([]*Table, error) {
	return func(env *Env) ([]*Table, error) {
		out := make([]*Table, 0, len(fns))
		for _, fn := range fns {
			t, err := fn(env)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
}

// Names lists the identifiers Run accepts: every experiment, then "all".
func Names() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// Run executes one named experiment, or every one for "all" (and "").
func Run(env *Env, name string) ([]*Table, error) {
	if name == "all" || name == "" {
		return All(env)
	}
	for _, e := range experiments {
		if e.name == name {
			return e.run(env)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", name, Names())
}

// All runs every experiment at the given scale.
func All(env *Env) ([]*Table, error) {
	var out []*Table
	for _, e := range experiments {
		ts, err := e.run(env)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}
