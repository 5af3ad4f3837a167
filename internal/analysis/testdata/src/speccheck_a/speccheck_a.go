// Package speccheck_a is the golden corpus for the speccheck analyzer:
// Chunnel DAG construction defects caught at analysis time against the
// registry knowledge the dependency corpus contributes.
package speccheck_a

import (
	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/spec"

	dep "testdata/speccheck_dep"
)

// Ok negotiates a stack of known types; the select resolver and both
// branch implementations are registered by the dependency corpus.
func Ok() {
	stack := spec.Seq(dep.GoodNode(), dep.PickNode())
	_, _ = bertha.New("ok", stack)
}

// Unknown declares a chunnel type nothing implements.
func Unknown() {
	stack := spec.Seq(spec.New("mystery"))
	_, _ = bertha.New("u", stack) // want `unknown-type`
}

// stackRef names a pointer to the public alias bertha.Stack.
type stackRef = *bertha.Stack

// mysteryNode and mysteryStack name their results by the aliases.
func mysteryNode() bertha.Node { return spec.New("mystery") }

func mysteryStack() stackRef { return spec.Seq(mysteryNode()) }

// UnknownAlias is Unknown, built behind the aliases.
func UnknownAlias() {
	_, _ = bertha.New("ua", mysteryStack()) // want `unknown-type`
}

// OkAliasRegistered uses a type registered only by AliasInfos.
func OkAliasRegistered() {
	stack := spec.Seq(spec.New("aliased"))
	_, _ = bertha.New("oa", stack)
}

// UnknownSelect uses a select type with no registered resolver.
func UnknownSelect() {
	stack := spec.Seq(spec.Select("chooser", nil,
		spec.Seq(spec.New("good")),
		spec.Seq(spec.New("switchy")),
	))
	_, _ = bertha.New("us", stack) // want `unknown-type`
}

// Scoped constrains "switchy" — whose only implementation runs on a
// switch — to the application process.
func Scoped() {
	stack := spec.Seq(spec.New("switchy").WithScope(spec.ScopeApplication))
	_, _ = bertha.New("s", stack) // want `scope`
}

// OkScope pairs a host constraint with a userspace implementation.
func OkScope() {
	stack := spec.Seq(spec.New("good").WithScope(spec.ScopeHost))
	_, _ = bertha.New("os", stack)
}

// Dup repeats a type in one sequence with no optimizer to dedupe it.
func Dup() {
	stack := spec.Seq(spec.New("good"), spec.New("good"))
	_, _ = bertha.New("d", stack) // want `dup-type`
}

// OkDupOptimized is the same stack, legalized by the optimizer's
// eliminate pass.
func OkDupOptimized(reg *bertha.Registry) {
	stack := spec.Seq(spec.New("good"), spec.New("good"))
	_, _ = bertha.New("d2", stack, bertha.WithOptimizer(bertha.NewOptimizer(reg)))
}

// EmptyBranch builds a select with a branch negotiation could never
// resolve to; reported at the construction site.
func EmptyBranch() spec.Node {
	return spec.Select("pick", nil,
		spec.Seq(spec.New("good")),
		spec.Seq(), // want `empty-branch`
	)
}

// EmptyType builds a node with no chunnel type name.
func EmptyType() spec.Node {
	return spec.New("") // want `empty-type`
}

// TooDeep nests selects past spec.MaxDepth; Validate would reject the
// stack at runtime, speccheck at analysis time.
func TooDeep() {
	stack := spec.Seq(
		spec.Select("pick", nil, spec.Seq(
			spec.Select("pick", nil, spec.Seq(
				spec.Select("pick", nil, spec.Seq(
					spec.Select("pick", nil, spec.Seq(
						spec.Select("pick", nil, spec.Seq(
							spec.Select("pick", nil, spec.Seq(
								spec.Select("pick", nil, spec.Seq(
									spec.Select("pick", nil, spec.Seq(
										spec.Select("pick", nil, spec.Seq(spec.New("good"))),
									)),
								)),
							)),
						)),
					)),
				)),
			)),
		)),
	)
	_, _ = bertha.New("deep", stack) // want `too-deep`
}
