package cagc

// Experiment registry: every regenerable artifact of the evaluation,
// addressable by id. Each experiment declares the runs it reads as
// cells — BatchItems of the paper's workload × scheme × policy matrix
// and of the extensions' parameter sweeps — and a report that projects
// them. One RunBatch executes the distinct cells, deduplicated by
// ConfigKey, of every experiment a call asks for, so the figures, the
// checks and the ablations read one result set. cmd/figures is a thin
// shell over this, so the dispatch itself is library code under test.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// experiment couples an id with the cells its report reads (nil: it
// reads none) and the report.
type experiment struct {
	id     string
	cells  func(p Params) []BatchItem
	report func(w io.Writer, p Params, rs runs) error
}

// experiments lists every experiment in presentation order. fig9 and
// fig10 share one comparison run and print together.
var experiments = []experiment{
	{"tableI", nil, printTableI},
	{"tableII", nil, printTableII},
	{"fig2", figure2Cells, printFigure2},
	{"fig6", figure6Cells, printFigure6},
	{"fig8", nil, printFigure8},
	{"fig9", compareCells, printFigure9And10},
	{"fig10", compareCells, printFigure9And10},
	{"fig11", figure11Cells, printFigure11},
	{"fig12", compareCells, printFigure12},
	{"fig13", figure13Cells, printFigure13},
	{"throughput", throughputCells, printThroughput},
	{"array", nil, printArray},
	{"tenants", nil, printTenants},
	{"ablations", ablationCells, printAblations},
	{"verify", verifyCells, printChecks},
}

// runs is the result set of one evaluation: the Result of every
// distinct cell, keyed by ConfigKey.
type runs map[string]*Result

// evaluate executes the distinct cells of exps in one RunBatch.
func evaluate(p Params, exps ...experiment) (runs, error) {
	rs := runs{}
	var items []BatchItem
	var keys []string
	for _, e := range exps {
		if e.cells == nil {
			continue
		}
		for _, it := range e.cells(p) {
			k := ConfigKey(it.Workload, it.Scheme, it.Policy, it.Params)
			if _, dup := rs[k]; !dup {
				rs[k] = nil
				items, keys = append(items, it), append(keys, k)
			}
		}
	}
	b := RunBatch(items, 0)
	for i, err := range b.Errs {
		if err != nil && !errors.Is(err, ErrNotRun) {
			it := items[i]
			return nil, fmt.Errorf("%s/%v/%s: %w", it.Workload, it.Scheme, it.Policy, err)
		}
	}
	for i, k := range keys {
		rs[k] = b.Results[i]
	}
	return rs, nil
}

// get returns the Result of one cell. Reading a cell the experiment
// did not declare is a bug in its cells function.
func (rs runs) get(w Workload, s Scheme, policy string, p Params) *Result {
	res, ok := rs[ConfigKey(w, s, policy, p)]
	if !ok {
		panic(fmt.Sprintf("cagc: experiment reads undeclared cell %s/%v/%s %+v", w, s, policy, p))
	}
	return res
}

// ExperimentIDs returns every experiment id, sorted.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(experiments))
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// RunExperiment regenerates one experiment by id (case-insensitive),
// writing its report.
func RunExperiment(id string, p Params, w io.Writer) error {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			rs, err := evaluate(p, e)
			if err != nil {
				return err
			}
			return e.report(w, p, rs)
		}
	}
	return fmt.Errorf("cagc: unknown experiment %q (have %v)", id, ExperimentIDs())
}

// RunAllExperiments regenerates everything once, in presentation order
// (fig10 is folded into fig9's comparison output), from one result set.
func RunAllExperiments(p Params, w io.Writer) error {
	var all []experiment
	for _, e := range experiments {
		if e.id != "fig10" { // printed with fig9
			all = append(all, e)
		}
	}
	rs, err := evaluate(p, all...)
	if err != nil {
		return err
	}
	for _, e := range all {
		if err := e.report(w, p, rs); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
