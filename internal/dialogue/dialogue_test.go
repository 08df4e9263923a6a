package dialogue

import "testing"

func TestClassifyIntent(t *testing.T) {
	cases := []struct {
		text string
		want Intent
	}{
		{"Give me an overview of the working force in Switzerland", IntentDiscover},
		{"What is the Swiss workforce barometer?", IntentDescribe},
		{"I am interested in the barometer", IntentChoose},
		{"Can you please give me the seasonality insights, such as overall trend, etc.", IntentAnalyze},
		{"How many employees are there", IntentQuery},
		{"What is the average salary in employees", IntentQuery},
		{"list the name of employees", IntentQuery},
		{"asdf qwerty", IntentUnknown},
		{"find datasets about health", IntentDiscover},
		{"tell me about the employment distribution", IntentDescribe},
	}
	for _, c := range cases {
		if got := ClassifyIntent(c.text); got != c.want {
			t.Errorf("ClassifyIntent(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestIntentAndRoleStrings(t *testing.T) {
	if IntentQuery.String() != "query" || IntentUnknown.String() != "unknown" {
		t.Error("intent strings wrong")
	}
	if RoleUser.String() != "user" || RoleSystem.String() != "system" {
		t.Error("role strings wrong")
	}
}

func TestResolveOffer(t *testing.T) {
	s := NewSession()
	s.SetOffers([]Offer{
		{ID: "emptype", Label: "Employment type distribution"},
		{ID: "barometer", Label: "Swiss Labour Market Barometer"},
	}, &Clarification{Question: "which one?"})
	got, ok := s.ResolveOffer("I am interested in the barometer")
	if !ok || got.ID != "barometer" {
		t.Errorf("resolve = %+v, %v", got, ok)
	}
	got, ok = s.ResolveOffer("the employment type one please")
	if !ok || got.ID != "emptype" {
		t.Errorf("resolve = %+v, %v", got, ok)
	}
	if _, ok := s.ResolveOffer("something entirely different"); ok {
		t.Error("unrelated text must not resolve")
	}
}

func TestPendingClarificationBiasesChoose(t *testing.T) {
	s := NewSession()
	s.SetOffers([]Offer{{ID: "barometer", Label: "Swiss Labour Market Barometer"}},
		&Clarification{Question: "which info would you prefer?"})
	// "the barometer" alone is not a choose-phrase, but with a pending
	// clarification and a resolvable offer it becomes one.
	intent := s.ClassifyTurn("the barometer")
	if intent != IntentChoose {
		t.Errorf("intent = %v", intent)
	}
}

func TestChooseSetsFocus(t *testing.T) {
	s := NewSession()
	s.SetOffers([]Offer{{ID: "barometer", Label: "barometer"}}, &Clarification{Question: "?"})
	o, _ := s.ResolveOffer("barometer")
	s.Choose(o)
	if s.Focus != "barometer" {
		t.Errorf("focus = %q", s.Focus)
	}
	if s.Pending != nil {
		t.Error("pending clarification not cleared")
	}
}

func TestRoleIntentRoundTrip(t *testing.T) {
	for _, r := range []Role{RoleUser, RoleSystem} {
		if got := ParseRole(r.String()); got != r {
			t.Errorf("ParseRole(%q) = %v, want %v", r.String(), got, r)
		}
	}
	intents := []Intent{IntentUnknown, IntentDiscover, IntentDescribe, IntentChoose,
		IntentAnalyze, IntentQuery, IntentConfirm, IntentFollowUp}
	for _, i := range intents {
		if got := ParseIntent(i.String()); got != i {
			t.Errorf("ParseIntent(%q) = %v, want %v", i.String(), got, i)
		}
	}
	// Garbage degrades to the default arms, never panics.
	if ParseRole("alien") != RoleSystem || ParseIntent("alien") != IntentUnknown {
		t.Error("unrecognized names must parse to the default arms")
	}
}
