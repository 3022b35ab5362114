package datafly

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs Datafly into the engine registry (see package engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Name() string { return "datafly" }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:                "datafly",
		Description:         "greedy full-domain generalization with suppression",
		Kind:                engine.Microdata,
		FullDomain:          true,
		RequiresHierarchies: true,
		CostExponent:        1,
		Criteria:            []string{policy.KAnonymity},
		Parameters: []engine.Param{
			{Name: "k", Type: "int", Required: true, Default: 10, Description: "minimum equivalence-class size"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "attributes to generalize (schema QI columns when empty)"},
			{Name: "max_suppression", Type: "float", Default: 0.02, Description: "maximum fraction of suppressed records"},
		},
	}
}

func (adapter) Validate(spec engine.Spec) error {
	if err := engine.ValidateCriteria(adapter{}.Describe(), spec); err != nil {
		return err
	}
	if spec.K < 1 {
		return fmt.Errorf("datafly: K must be at least 1 (got %d)", spec.K)
	}
	if spec.Hierarchies == nil {
		return fmt.Errorf("datafly: algorithm requires generalization hierarchies")
	}
	return nil
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		K:                spec.K,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Hierarchies:      spec.Hierarchies,
		MaxSuppression:   spec.MaxSuppression,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, classify(err)
	}
	return &engine.Result{Table: res.Table, Node: res.Node, SuppressedRows: res.SuppressedRows, Extra: res}, nil
}

// classify wraps the package's sentinel errors with the engine's error
// classes so the service layer can map them without importing this package.
func classify(err error) error {
	switch {
	case errors.Is(err, ErrConfig):
		return engine.ConfigError(err)
	case errors.Is(err, ErrUnsatisfiable):
		return engine.UnsatisfiableError(err)
	}
	return err
}
