package experiment

import (
	"context"
	"reflect"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
	"bufsim/internal/workload"
)

// digestConfigs is every experiment configuration that feeds the run
// cache. A type added here is automatically swept field by field below;
// a new config that memoizes through memoRun/runSweep must be listed or
// TestDigestCoversEveryField cannot protect it.
var digestConfigs = []any{
	LongLivedConfig{},
	SingleFlowConfig{},
	WindowDistConfig{},
	ShortFlowRunConfig{},
	ShortFlowBufferConfig{},
	MixedConfig{},
	TraceConfig{},
	AFCTComparisonConfig{},
	UtilizationTableConfig{},
	ProductionConfig{},
	MinBufferConfig{},
	CoDelConfig{},
	RTTSpreadConfig{},
	SyncConfig{},
	ECNConfig{},
	VariantConfig{},
	BackboneConfig{},
	PacingConfig{},
	SmoothingConfig{},
	CCFamilyConfig{},
	ccFamilyPointConfig{},
	MultiHopConfig{},
	HarpoonConfig{},
	ProfileRunConfig{},
	FlashCrowdConfig{},
	AdversarialConfig{},
	adversarialPointConfig{},
	AdversaryScenario{},
	ProbeLadderConfig{},
}

// TestDigestCoversEveryField is the cache's completeness contract,
// checked by reflection so it cannot rot as configs grow fields:
//
//   - every semantic field must reach the digest (perturbing it changes
//     the cache key — otherwise the cache would serve stale results for
//     a config that means something different), and
//   - the embedded run environment (telemetry, audit, the cache handle
//     itself, worker counts, contexts) must NOT reach it — otherwise
//     turning observability on would needlessly re-simulate — and no
//     config may declare one of its fields directly, outside Env.
func TestDigestCoversEveryField(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A run environment with every field set: attaching it must not move
	// the key.
	env := Env{
		Metrics:     metrics.New(),
		Audit:       audit.New(),
		Cache:       store,
		Resume:      true,
		Parallelism: 4,
		Ctx:         context.Background(),
	}
	for _, cfg := range digestConfigs {
		typ := reflect.TypeOf(cfg)
		t.Run(typ.Name(), func(t *testing.T) {
			base := pointKey("completeness", cfg)
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					continue
				}
				mutated := reflect.New(typ).Elem()
				mutated.Set(reflect.ValueOf(cfg))
				fv := mutated.Field(i)
				if _, ok := reflect.TypeOf(env).FieldByName(f.Name); ok {
					t.Errorf("%s: run-environment field declared directly; embed Env instead", f.Name)
					continue
				}
				if f.Name == "Env" {
					fv.Set(reflect.ValueOf(env))
					if pointKey("completeness", mutated.Interface()) != base {
						t.Errorf("%s: the run environment reaches the digest; attaching it would force a re-simulation", f.Name)
					}
					continue
				}
				setNonZero(t, f.Name, fv)
				if pointKey("completeness", mutated.Interface()) == base {
					t.Errorf("%s: semantic field does not reach the digest; the cache would serve stale results when it changes", f.Name)
				}
			}
		})
	}
}

// setNonZero writes a non-zero value of v's type, recursing through
// slices and structs. It fails the test on a kind it has no rule for,
// which is the signal to teach it (or digestIgnore) about a new field
// shape rather than silently skipping it.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.775)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		setNonZero(t, name, elem)
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			// Nested configs (a grid-point key embedding a scenario)
			// carry a run environment like top-level ones; digestIgnore
			// strips it at any depth, so skip it here.
			if !f.IsExported() || f.Name == "Env" {
				continue
			}
			setNonZero(t, name, v.Field(i))
		}
	case reflect.Interface:
		// The semantic interfaces in the configs are the flow-size
		// distribution and the workload source; anything else needs an
		// explicit rule here.
		for _, candidate := range []reflect.Value{
			reflect.ValueOf(workload.GeometricSize(5)),
			reflect.ValueOf(workload.PoissonSource{Load: 0.5, Sizes: workload.FixedSize(9)}),
		} {
			if candidate.Type().Implements(v.Type()) {
				v.Set(candidate)
				return
			}
		}
		t.Fatalf("%s: no perturbation rule for interface %v", name, v.Type())
	default:
		t.Fatalf("%s: no perturbation rule for kind %v", name, v.Kind())
	}
}
