// Package dialogue implements the conversational data exploration
// layer's session machinery: turn history, intent classification,
// reference resolution against the conversation context ("I am
// interested in the barometer" → the dataset offered two turns ago),
// and pending-clarification tracking.
//
// The paper's Figure 1 dialogue drives the design: the same session
// object carries the user from an ambiguous overview question through
// a clarification, a dataset description, and an analysis request.
package dialogue

import (
	"strings"

	"github.com/reliable-cda/cda/internal/textindex"
)

// Role identifies who produced a turn.
type Role int

// Turn roles.
const (
	RoleUser Role = iota
	RoleSystem
)

// String names the role.
func (r Role) String() string {
	if r == RoleUser {
		return "user"
	}
	return "system"
}

// Intent classifies what the user wants from a turn.
type Intent int

// Supported intents.
const (
	IntentUnknown Intent = iota
	// IntentDiscover: find relevant datasets ("overview of the
	// working force").
	IntentDiscover
	// IntentDescribe: explain a dataset or concept ("what is the
	// barometer?").
	IntentDescribe
	// IntentChoose: pick one of the offered options ("I am interested
	// in the barometer").
	IntentChoose
	// IntentAnalyze: run an analysis ("seasonality insights, trends").
	IntentAnalyze
	// IntentQuery: a structured-fact question routed to NL2SQL ("how
	// many ...", "what is the average ...").
	IntentQuery
	// IntentConfirm: a yes/no reply to a pending system question
	// ("yes", "no, I meant ...") — the ask-and-refine loop.
	IntentConfirm
	// IntentFollowUp: an elliptical refinement of the previous
	// question ("and in Bern?").
	IntentFollowUp
)

// String names the intent.
func (i Intent) String() string {
	switch i {
	case IntentDiscover:
		return "discover"
	case IntentDescribe:
		return "describe"
	case IntentChoose:
		return "choose"
	case IntentAnalyze:
		return "analyze"
	case IntentQuery:
		return "query"
	case IntentConfirm:
		return "confirm"
	case IntentFollowUp:
		return "followup"
	default:
		return "unknown"
	}
}

// ClassifyIntent maps a user utterance to an intent with keyword
// rules. Order matters: structured-query patterns are checked first
// because they are the most specific.
func ClassifyIntent(text string) Intent {
	t := strings.ToLower(strings.TrimSpace(text))
	t = strings.TrimSuffix(t, "?")
	t = strings.TrimSuffix(t, ".")
	switch {
	case t == "yes" || t == "no" || hasPrefixAny(t, "yes,", "yes ", "no,", "no ",
		"correct", "exactly", "that's right", "that is right"):
		return IntentConfirm
	case hasPrefixAny(t, "how many", "what is the average", "what is the total",
		"what is the maximum", "what is the minimum", "list the"):
		return IntentQuery
	case hasPrefixAny(t, "and in ", "and for ", "and where ", "and the ",
		"what about ", "how about "):
		return IntentFollowUp
	case containsAny(t, "seasonality", "seasonal", "trend", "insight", "decompos", "forecast", "anomal"):
		return IntentAnalyze
	case hasPrefixAny(t, "what is", "what are", "describe", "tell me about", "explain"):
		return IntentDescribe
	case containsAny(t, "i am interested in", "i'm interested in", "i prefer", "the first one",
		"the second one", "show me the", "let's use", "go with"):
		return IntentChoose
	case containsAny(t, "overview", "find", "search", "which data", "what data", "datasets", "data about", "sources"):
		return IntentDiscover
	default:
		return IntentUnknown
	}
}

func hasPrefixAny(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// Turn is one utterance with its annotations.
type Turn struct {
	Role   Role
	Text   string
	Intent Intent // user turns only
	// Confidence is the system's reported confidence (system turns).
	Confidence float64
}

// Offer is an option the system put on the table (a dataset, an
// analysis), kept so later user turns can refer back to it.
type Offer struct {
	ID    string // e.g. dataset ID
	Label string // what was said to the user
}

// Clarification is a pending question the system asked.
type Clarification struct {
	Question string
	Options  []Offer
}

// Session is one conversation's mutable state.
type Session struct {
	Turns   []Turn
	Offers  []Offer // most recent offers, newest last
	Focus   string  // ID of the dataset currently under discussion
	Pending *Clarification
	// Memo is a blackboard for cross-turn state owned by the
	// orchestrator (e.g. the previous query frame for follow-ups, or
	// a candidate answer awaiting user confirmation).
	Memo map[string]any
}

// NewSession creates an empty session.
func NewSession() *Session { return &Session{Memo: map[string]any{}} }

// ClassifyTurn classifies a user utterance in the session's context
// WITHOUT mutating the session. A pending clarification biases
// classification toward IntentChoose when the utterance references an
// offer. The orchestrator classifies first, dispatches, and only
// commits the turn pair once the answer is final — so a cancelled or
// failed turn never leaves a partial transcript entry.
func (s *Session) ClassifyTurn(text string) Intent {
	intent := ClassifyIntent(text)
	// A pending clarification only reinterprets utterances that have
	// no clear intent of their own ("the barometer"); an explicit
	// question ("what is X?") keeps its intent.
	if intent == IntentUnknown && s.Pending != nil {
		if _, ok := s.ResolveOffer(text); ok {
			intent = IntentChoose
		}
	}
	return intent
}

// CommitTurn atomically appends a completed user/system turn pair
// with the intent the dispatch ran under (classified before any
// handler side effects shifted the pending-clarification bias).
func (s *Session) CommitTurn(userText string, intent Intent, systemText string, confidence float64) {
	s.Turns = append(s.Turns,
		Turn{Role: RoleUser, Text: userText, Intent: intent},
		Turn{Role: RoleSystem, Text: systemText, Confidence: confidence})
}

// SetOffers replaces the current offers (after a discovery response)
// and records the pending clarification, if any.
func (s *Session) SetOffers(offers []Offer, pending *Clarification) {
	s.Offers = offers
	s.Pending = pending
}

// ResolveOffer finds the offer the utterance refers to by token
// overlap with the offer labels; ties go to the earlier offer. The
// second result is false when nothing overlaps.
func (s *Session) ResolveOffer(text string) (Offer, bool) {
	toks := tokenSet(text)
	best := -1
	bestScore := 0
	for i, o := range s.Offers {
		score := 0
		for _, t := range textindex.TokenizeContent(o.Label) {
			if toks[t] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return Offer{}, false
	}
	return s.Offers[best], true
}

func tokenSet(text string) map[string]bool {
	out := map[string]bool{}
	for _, t := range textindex.TokenizeContent(text) {
		out[t] = true
	}
	return out
}

// Choose marks an offer as the session focus and clears the pending
// clarification.
func (s *Session) Choose(offer Offer) {
	s.Focus = offer.ID
	s.Pending = nil
}
