// Package speccheck_dep is the dependency corpus for the speccheck
// golden tests: its ImplInfo literals and RegisterResolver call are the
// registry knowledge — and its builder functions the NodeFacts — that
// speccheck_a consumes across the package boundary.
package speccheck_dep

import (
	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
)

// Infos declares the fixture's implementations: "good" in userspace,
// "switchy" only on an in-network switch.
var Infos = []core.ImplInfo{
	{Name: "good/sw", Type: "good", Location: core.LocUserspace},
	{Name: "switchy/tor", Type: "switchy", Location: core.LocSwitch},
}

// AliasInfos declares "aliased" through the public alias
// bertha.ImplInfo.
var AliasInfos = []bertha.ImplInfo{
	{Name: "aliased/sw", Type: "aliased", Location: core.LocUserspace},
}

// Register installs the fixture's select resolver.
func Register(reg *core.Registry) {
	reg.RegisterResolver("pick", nil)
}

// GoodNode returns a constant-shaped node, exercising cross-package
// NodeFact evaluation.
func GoodNode() spec.Node {
	return spec.New("good")
}

// PickNode returns a select over the two registered types.
func PickNode() spec.Node {
	return spec.Select("pick", nil,
		spec.Seq(spec.New("good")),
		spec.Seq(spec.New("switchy")),
	)
}
