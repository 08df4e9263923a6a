package kg_test

import (
	"fmt"

	"github.com/reliable-cda/cda/internal/kg"
)

func Example() {
	st := kg.NewStore()
	st.Add(kg.Triple{S: "ex:Barometer", P: kg.PredType, O: "ex:Indicator", Source: "catalog"})
	st.Add(kg.Triple{S: "ex:Indicator", P: kg.PredSubClassOf, O: "ex:Dataset", Source: "ontology"})
	st.Add(kg.Triple{S: "ex:Barometer", P: kg.PredLabel, O: "Labour Market Barometer", Source: "catalog"})
	st.Infer() // materialize the RDFS closure

	for _, d := range st.Match("", kg.PredType, "ex:Dataset") {
		for _, l := range st.Match(d.S, kg.PredLabel, "") {
			fmt.Println(l.O)
		}
	}
	// Output:
	// Labour Market Barometer
}
