//! The model-based mediator (Figure 2) — now a thin **facade** over two
//! subsystems plus the evaluation pipeline:
//!
//! * [`crate::Federation`] — the source-facing layer: registered
//!   wrappers, per-source policies, circuit breakers, the shared clock,
//!   and the single guarded-fetch path;
//! * [`crate::Knowledge`] — the semantic layer: the domain map and its
//!   resolved closure view, retained DL axioms, the CM plug-in registry,
//!   the semantic index, applied CMs, and view definitions;
//! * the eval/cache pipeline owned here: the GCM base, the
//!   fingerprint-keyed cached model, and the evaluation options.
//!
//! The mediator composes the three: sources join at runtime by
//! [`Mediator::register`]-ing (their CM export translated through the
//! plug-in for their formalism, applied to the GCM base, their data
//! anchored into the domain map, contributed DL axioms merged — Figure
//! 3), and integrated views are FL rule texts evaluated over everything
//! together. [`Mediator::snapshot`] freezes the evaluated state into an
//! immutable, `Send + Sync` [`crate::QuerySnapshot`] that any number of
//! threads can query concurrently.

use crate::error::{MediatorError, Result};
use crate::fault::{AnswerReport, BreakerState, Clock, SourceError, SourcePolicy};
use crate::federation::{Federation, FetchRequest};
pub use crate::federation::{MediatorStats, RegisteredSource};
use crate::hub::{PinnedSnapshot, SnapshotHub};
use crate::knowledge::Knowledge;
use crate::snapshot::QuerySnapshot;
use crate::wrapper::{Anchor, ObjectRow, SourceQuery, Wrapper};
use kind_datalog::{EvalOptions, EvalProfile, EvalStats, Interner, Model, Sym, Term};
use kind_dm::{axiom, rules, DomainMap, ExecMode, Resolved, SemanticIndex, SourceId, DM_OPS_RULES};
use kind_gcm::{GcmBase, GcmDecl};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Answer rows, the names of the sources contacted to produce them, and
/// the evaluation statistics and profile.
pub(crate) type RowsAndSources = (Vec<Vec<Term>>, Vec<String>, EvalStats, EvalProfile);

/// The model-based mediator: a facade composing the [`Federation`] and
/// [`Knowledge`] layers with the eval/cache pipeline (see module docs).
pub struct Mediator {
    federation: Federation,
    knowledge: Knowledge,
    base: GcmBase,
    /// The cached evaluated model, shared with snapshots. `Arc` rather
    /// than an owned `Model` so [`Mediator::snapshot`] publishes it
    /// without a deep copy and query paths need no take/put juggling.
    model: Option<Arc<Model>>,
    /// Fingerprint of the program the cached [`Self::model`] was computed
    /// from (see [`Self::base_fingerprint`]).
    model_fp: Option<u64>,
    /// Whether the base program must be rebuilt from scratch before the
    /// next evaluation. Raised only by changes the staged write plane
    /// cannot express as a delta: domain-map refinements (their compiled
    /// rules permeate the whole program) and evaluation-option changes.
    /// Everything else — loaded rows, retracted rows, incremental CM
    /// applications, view pushes/pops — stays out of this flag and flows
    /// through the engine's changelog instead, so [`Self::publish`] can
    /// maintain the cached model incrementally.
    needs_rebuild: bool,
    /// Engine rule ranges of each installed view, aligned with
    /// `knowledge.views` — valid whenever `needs_rebuild` is false, so
    /// [`Self::pop_view`] can surgically remove exactly the view's rules
    /// instead of invalidating the world. Recomputed by [`Self::rebuild`].
    view_spans: Vec<(usize, usize)>,
    /// The `Arc` of the base handed to the most recent snapshot, reused
    /// verbatim by the next [`Self::snapshot`] when no base mutation
    /// happened in between — repeated snapshots of a quiet mediator share
    /// one base clone instead of deep-copying per call.
    shared_base: Option<Arc<GcmBase>>,
    /// The snapshot publication hub: the epoch-counted current-snapshot
    /// slot that readers load wait-free. The mediator is its single
    /// writer — [`Self::publish`] installs into it whenever anyone else
    /// holds a reference (see [`Self::hub`]), and
    /// [`Self::publish_snapshot`] installs unconditionally.
    hub: Arc<SnapshotHub>,
    eval_options: EvalOptions,
}

impl Mediator {
    /// Creates a mediator around a domain map, with edges executed in
    /// `mode` and the built-in CM plug-ins registered.
    pub fn new(dm: DomainMap, mode: ExecMode) -> Self {
        let federation = Federation::new();
        // One cancellation token for the whole pipeline: fetch jobs and
        // the Datalog fixpoint observe the same flag, so a single
        // `cancel()` winds down both planes cooperatively.
        let eval_options = EvalOptions {
            cancel: Some(federation.cancel_token()),
            ..EvalOptions::default()
        };
        let mut m = Mediator {
            federation,
            knowledge: Knowledge::new(dm, mode),
            base: GcmBase::new(),
            model: None,
            model_fp: None,
            needs_rebuild: true,
            view_spans: Vec::new(),
            shared_base: None,
            hub: Arc::new(SnapshotHub::new()),
            eval_options,
        };
        m.rebuild().expect("empty mediator builds");
        m
    }

    /// Creates a mediator from DL axiom text: the domain map is lowered
    /// from the axioms, which are also retained so
    /// [`Self::select_sources_by_expression`] can use the structural
    /// subsumption reasoner.
    pub fn from_axioms(axiom_text: &str, mode: ExecMode) -> Result<Self> {
        let mut dm = DomainMap::new();
        let axioms = axiom::load_axioms(&mut dm, axiom_text)?;
        let mut m = Self::new(dm, mode);
        m.knowledge.axioms = axioms;
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Layer access.
    // ------------------------------------------------------------------

    /// The source-facing layer: registered wrappers, policies, breakers,
    /// clock, fetch statistics.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Mutable access to the federation layer.
    pub fn federation_mut(&mut self) -> &mut Federation {
        &mut self.federation
    }

    /// The semantic layer: domain map, resolved view, axioms, semantic
    /// index, CMs, views.
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    /// Mutable access to the knowledge layer.
    pub fn knowledge_mut(&mut self) -> &mut Knowledge {
        &mut self.knowledge
    }

    /// The two planes of the execution pipeline, split-borrowed: the
    /// **fetch plane** (mutable federation — it advances breakers, the
    /// clock, and statistics) alongside the **evaluate plane**'s
    /// knowledge (read-only). This is how a plan's fetch phase — e.g.
    /// [`crate::plan::section5_fetch`] — runs source selection against
    /// the knowledge layer while fetching through the federation,
    /// without ever being able to mutate semantic state.
    pub fn fetch_eval_planes(&mut self) -> (&mut Federation, &Knowledge) {
        (&mut self.federation, &self.knowledge)
    }

    // ------------------------------------------------------------------
    // Knowledge-layer delegation.
    // ------------------------------------------------------------------

    /// The retained DL axioms (empty when the map was built directly).
    pub fn axioms(&self) -> &[kind_dm::Axiom] {
        self.knowledge.axioms()
    }

    /// The domain map.
    pub fn dm(&self) -> &DomainMap {
        self.knowledge.dm()
    }

    /// The resolved (flattened) domain-map view.
    pub fn resolved(&self) -> &Resolved {
        self.knowledge.resolved()
    }

    /// The semantic index.
    pub fn index(&self) -> &SemanticIndex {
        self.knowledge.index()
    }

    /// The plug-in registry (e.g. to register a new formalism).
    pub fn registry_mut(&mut self) -> &mut kind_gcm::PluginRegistry {
        self.knowledge.registry_mut()
    }

    /// The least upper bound of the named concepts in the isa lattice.
    pub fn lub(&self, concepts: &[&str]) -> Result<Option<String>> {
        self.knowledge.lub(concepts)
    }

    /// The least upper bound in the **partonomy order** along `role` —
    /// the "region of correspondence" of §5 step 4: the smallest concept
    /// whose downward closure contains all the given locations.
    pub fn partonomy_lub(&self, role: &str, concepts: &[&str]) -> Result<Option<String>> {
        self.knowledge.partonomy_lub(role, concepts)
    }

    // ------------------------------------------------------------------
    // Federation-layer delegation.
    // ------------------------------------------------------------------

    /// Registered sources.
    pub fn sources(&self) -> &[RegisteredSource] {
        self.federation.sources()
    }

    /// Looks up a registered source by name.
    pub fn source(&self, name: &str) -> Result<&RegisteredSource> {
        self.federation.source(name)
    }

    /// Cumulative query-processing statistics.
    pub fn stats(&self) -> MediatorStats {
        self.federation.stats
    }

    /// The mediator's clock (share it with [`crate::FaultInjector`]s so
    /// injected delays are visible to timeout checks).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.federation.clock()
    }

    /// Replaces the clock (e.g. with a pre-advanced
    /// [`crate::VirtualClock`]).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.federation.set_clock(clock);
    }

    /// Sets the policy used for sources without a per-source override.
    pub fn set_default_policy(&mut self, policy: SourcePolicy) {
        self.federation.set_default_policy(policy);
    }

    /// Sets a per-source retry/timeout/breaker policy. Any existing
    /// breaker for the source is reset so the new configuration takes
    /// effect immediately.
    pub fn set_source_policy(&mut self, name: impl Into<String>, policy: SourcePolicy) {
        self.federation.set_source_policy(name, policy);
    }

    /// The policy governing `name` (per-source override or default).
    pub fn policy_for(&self, name: &str) -> &SourcePolicy {
        self.federation.policy_for(name)
    }

    /// Arms an end-to-end virtual-time budget for every degradable
    /// operation ([`Self::materialize_all`], [`Self::answer`], the §5
    /// plans): each operation starts a fresh [`crate::QueryBudget`],
    /// fetch jobs work against the remaining slice, and sources that run
    /// past it are cut off with
    /// [`crate::SourceOutcome::DeadlineExceeded`] — the answer completes
    /// from whatever landed in time, and the report says what is
    /// missing. `0` (the default) disables the deadline.
    pub fn set_query_budget_ms(&mut self, ms: u64) {
        self.federation.set_query_budget_ms(ms);
    }

    /// The configured per-operation budget (0 = no deadline).
    pub fn query_budget_ms(&self) -> u64 {
        self.federation.query_budget_ms()
    }

    /// The pipeline-wide cooperative cancellation token: cancel it (from
    /// any thread) and in-flight fetches abandon with
    /// [`crate::SourceOutcome::Cancelled`] while the Datalog fixpoint
    /// returns [`kind_datalog::DatalogError::Interrupted`] at its next
    /// round boundary. Each degradable operation starts with the token
    /// reset.
    pub fn cancel_token(&self) -> kind_datalog::CancelToken {
        self.federation.cancel_token()
    }

    /// When `true`, the first fetch job to exhaust its budget slice
    /// cancels its in-flight siblings instead of letting each run to its
    /// own deadline. Off by default: sibling cancellation trades the
    /// bit-identical-reports guarantee for lower tail latency (see
    /// [`Federation::set_deadline_cancels_siblings`]).
    pub fn set_deadline_cancels_siblings(&mut self, yes: bool) {
        self.federation.set_deadline_cancels_siblings(yes);
    }

    /// The breaker state for a source, once it has been fetched from at
    /// least once.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.federation.breaker_state(name)
    }

    /// Force-closes a source's breaker (operator override).
    pub fn reset_breaker(&mut self, name: &str) {
        self.federation.reset_breaker(name);
    }

    /// The degradation report of the most recent degradable operation
    /// ([`Self::materialize_all`], [`Self::answer`], or a plan run).
    pub fn report(&self) -> &AnswerReport {
        self.federation.report()
    }

    /// Starts a fresh report (each degradable operation calls this).
    pub(crate) fn begin_report(&mut self) {
        self.federation.begin_report();
    }

    /// Capability-aware, fault-tolerant fetch — delegates to the
    /// federation layer's single guarded path ([`Federation::fetch`]), so
    /// retry/breaker/quarantine semantics are identical across every
    /// entry point.
    pub fn fetch(&mut self, source_name: &str, q: &SourceQuery) -> Result<Vec<ObjectRow>> {
        self.federation.fetch(source_name, q)
    }

    /// Like [`Self::fetch`], but a source-level failure degrades to an
    /// empty row set instead of an error (the failure stays visible in
    /// [`Self::report`]). Mediator-level errors (unknown source/class)
    /// still propagate.
    pub fn fetch_degraded(&mut self, source_name: &str, q: &SourceQuery) -> Result<Vec<ObjectRow>> {
        self.federation.fetch_degraded(source_name, q)
    }

    /// Calls a declared query template on a source (§2's "query
    /// templates" capability form): expands the template with the given
    /// arguments and fetches through the capability-aware path.
    pub fn call_template(
        &mut self,
        source_name: &str,
        template: &str,
        args: &[kind_gcm::GcmValue],
    ) -> Result<Vec<ObjectRow>> {
        self.federation.call_template(source_name, template, args)
    }

    /// The sources that export `class` (by declared capability).
    pub fn sources_exporting(&self, class: &str) -> Vec<String> {
        self.federation.sources_exporting(class)
    }

    // ------------------------------------------------------------------
    // Source selection: knowledge-layer ids mapped to federation names.
    // ------------------------------------------------------------------

    /// Maps knowledge-layer source ids to names, preserving registration
    /// order.
    fn names_of(&self, ids: &[SourceId]) -> Vec<String> {
        self.federation
            .sources()
            .iter()
            .filter(|s| ids.contains(&s.id))
            .map(|s| s.name.clone())
            .collect()
    }

    /// **Source selection** via the semantic index (§5 step 2): the names
    /// of sources with data anchored at (or below) *all* the given
    /// concepts.
    pub fn select_sources(&self, concepts: &[&str]) -> Result<Vec<String>> {
        Ok(self.names_of(&self.knowledge.select_sources(concepts)?))
    }

    /// Sources with data anchored anywhere in the **anatomical region**
    /// under `root` — the downward closure along `role` (which includes
    /// isa-subconcepts). This is how "sources relevant to the cerebellum"
    /// finds a lab anchored at `Purkinje_Cell` (a *part*, not a
    /// subconcept, of the cerebellum).
    pub fn sources_in_region(&self, role: &str, root: &str) -> Result<Vec<String>> {
        Ok(self.names_of(&self.knowledge.sources_in_region(role, root)?))
    }

    /// **Logic-level source selection**: the sources whose anchored
    /// concepts are subsumed by a DL concept *expression* — e.g.
    /// `"Neuron and exists has.Spine"` finds sources anchored at
    /// `Purkinje_Cell` even if no single named concept covers the query.
    /// Uses the structural subsumption reasoner on the retained axioms
    /// (sound, incomplete; see `kind_dm::subsume`).
    pub fn select_sources_by_expression(&self, expr_text: &str) -> Result<Vec<String>> {
        let all: Vec<SourceId> = self.federation.sources().iter().map(|s| s.id).collect();
        Ok(self.names_of(&self.knowledge.sources_subsumed_by(expr_text, &all)?))
    }

    /// Sources relevant to any one concept's cone.
    pub fn sources_below(&self, concept: &str) -> Result<Vec<String>> {
        Ok(self.names_of(&self.knowledge.sources_below(concept)?))
    }

    // ------------------------------------------------------------------
    // Registration: the one flow that touches every layer.
    // ------------------------------------------------------------------

    /// Registers a wrapped source: translates its CM through the plug-in
    /// for its formalism, applies it, merges its DM contribution, and
    /// builds its semantic index. Returns the assigned source id.
    pub fn register(&mut self, wrapper: Arc<dyn Wrapper>) -> Result<SourceId> {
        let name = wrapper.name().to_string();
        if self.federation.has_source(&name) {
            return Err(MediatorError::DuplicateSource { name });
        }
        let id = self.federation.next_id();
        // (1) DM contribution — a source may refine the mediator's map
        // (Figure 3) *before* anchoring against it.
        let contribution = wrapper.dm_contribution();
        let map_changed = self.knowledge.merge_contribution(&contribution)?;
        // (2) Conceptual model through the plug-in.
        let doc = wrapper.export_cm();
        let cm = self
            .knowledge
            .registry
            .translate(wrapper.formalism(), &doc)?;
        // Remember the declared schema for row validation at fetch time.
        let mut declared_attrs: HashMap<String, BTreeSet<String>> = HashMap::new();
        for d in &cm.decls {
            if let GcmDecl::Method { class, method, .. } = d {
                declared_attrs
                    .entry(class.clone())
                    .or_default()
                    .insert(method.clone());
            }
        }
        self.knowledge.cms.push(cm);
        // Registration contacts the source directly (no retry/breaker: a
        // source that cannot answer its own registration scan has no
        // business joining the federation).
        let strict = |r: std::result::Result<Vec<ObjectRow>, SourceError>| {
            r.map_err(|error| MediatorError::Source {
                name: name.clone(),
                error,
            })
        };
        // (3) Semantic index: anchor the source's data.
        let mut anchor_attrs: HashMap<String, Vec<String>> = HashMap::new();
        for anchor in wrapper.anchors() {
            match anchor {
                Anchor::Fixed { class, concept } => {
                    let node = self.knowledge.lookup(&concept)?;
                    let count = strict(wrapper.query(&SourceQuery::scan(&class)))?
                        .len()
                        .max(1);
                    self.knowledge.index_mut().anchor_many(id, node, count);
                }
                Anchor::ByAttr { class, attr } => {
                    anchor_attrs
                        .entry(class.clone())
                        .or_default()
                        .push(attr.clone());
                    let rows = strict(wrapper.query(&SourceQuery::scan(&class)))?;
                    let mut per_concept: HashMap<String, usize> = HashMap::new();
                    for row in &rows {
                        if let Some(c) = row.get_str(&attr) {
                            *per_concept.entry(c).or_insert(0) += 1;
                        }
                    }
                    for (concept, count) in per_concept {
                        let node = self.knowledge.lookup(&concept)?;
                        self.knowledge.index_mut().anchor_many(id, node, count);
                    }
                }
                Anchor::Derived { class, rule } => {
                    // Evaluate the derived-anchor rule in a scratch
                    // knowledge base over this class's rows only.
                    let mut scratch = kind_flogic::FLogic::new();
                    scratch.load(&rule)?;
                    let rows = strict(wrapper.query(&SourceQuery::scan(&class)))?;
                    for row in &rows {
                        let obj = scratch.engine_mut().constant(&row.id);
                        let cls = scratch.engine_mut().constant(&class);
                        let preds = *scratch.preds();
                        scratch
                            .engine_mut()
                            .add_fact(preds.class, vec![cls.clone()])?;
                        scratch
                            .engine_mut()
                            .add_fact(preds.inst, vec![obj.clone(), cls])?;
                        for (attr, value) in &row.attrs {
                            let a = scratch.engine_mut().constant(attr);
                            let v = match value {
                                kind_gcm::GcmValue::Int(i) => Term::Int(*i),
                                other => {
                                    let s = other.to_string();
                                    scratch.engine_mut().constant(&s)
                                }
                            };
                            scratch
                                .engine_mut()
                                .add_fact(preds.mi, vec![obj.clone(), a, v])?;
                        }
                    }
                    let model = scratch.run_with(&self.eval_options)?;
                    let mut per_concept: HashMap<String, usize> = HashMap::new();
                    for sol in scratch
                        .engine_mut()
                        .clone()
                        .query_model(&model, "anchor_at(X, C)")?
                    {
                        per_concept
                            .entry(scratch.engine().show(&sol[1]))
                            .and_modify(|c| *c += 1)
                            .or_insert(1);
                    }
                    for (concept, count) in per_concept {
                        let node = self.knowledge.lookup(&concept)?;
                        self.knowledge.index_mut().anchor_many(id, node, count);
                    }
                }
            }
        }
        let caps = wrapper.capabilities();
        let classes = caps.iter().map(|c| c.class.clone()).collect();
        self.federation.add_source(RegisteredSource {
            id,
            name: name.clone(),
            caps,
            wrapper,
            classes,
            declared_attrs,
            anchor_attrs,
        });
        // Fast path: when the registration did not touch the domain map
        // and the base is current, apply the new CM and anchor facts
        // incrementally instead of rebuilding everything (anchoring
        // "without changing the latter", §4). The mutations land in the
        // engine's changelog, so the next [`Self::publish`] maintains the
        // cached model incrementally rather than discarding it.
        if !map_changed && !self.needs_rebuild {
            let cm = self.knowledge.cms.last().expect("just pushed").clone();
            if let Err(e) = self.apply_cm_and_anchors(&cm, id, &name) {
                // A half-applied CM leaves the engine out of sync with
                // the knowledge layer; fall back to a full rebuild.
                self.needs_rebuild = true;
                return Err(e);
            }
            self.shared_base = None;
        } else {
            self.needs_rebuild = true;
        }
        Ok(id)
    }

    /// The incremental half of [`Self::register`]: applies the CM and the
    /// source's `anchored` facts to the live base.
    fn apply_cm_and_anchors(
        &mut self,
        cm: &kind_gcm::ConceptualModel,
        id: SourceId,
        name: &str,
    ) -> Result<()> {
        self.base.apply(cm)?;
        for concept in self.knowledge.index.concepts_of(id) {
            if let Some(cname) = self.knowledge.dm.name(concept) {
                let text = format!("anchored({:?}, {:?}).", name, cname);
                self.base.flogic_mut().load(&text)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The eval/cache pipeline.
    // ------------------------------------------------------------------

    /// Overrides the evaluation options (depth limits etc.). The
    /// mediator's pipeline-wide cancellation token is re-attached unless
    /// the caller supplied their own (see [`Self::cancel_token`]).
    pub fn set_eval_options(&mut self, opts: EvalOptions) {
        self.eval_options = opts;
        if self.eval_options.cancel.is_none() {
            self.eval_options.cancel = Some(self.federation.cancel_token());
        }
        self.needs_rebuild = true;
    }

    /// The current evaluation options.
    pub fn eval_options(&self) -> &EvalOptions {
        &self.eval_options
    }

    /// Ignored: evaluation always runs on the calling thread. Kept only
    /// so existing callers of the former evaluate-plane thread budget
    /// still compile; it changes nothing.
    pub fn set_eval_threads(&mut self, _threads: usize) {}

    /// Ignored: fetch jobs always run on scoped threads. Kept only
    /// because the frozen benchmark package (`perfbench/`) still calls
    /// it; it changes nothing.
    pub fn set_fetch_mode(&mut self, _mode: crate::FetchMode) {}

    /// Caps the fetch plane's thread count for plans touching stall-aware
    /// sources, which otherwise run one thread per source (0 =
    /// unlimited; see [`crate::Federation::set_in_flight_limit`]). It
    /// changes wall clock only, so it is cache-neutral like the other
    /// fetch knobs.
    pub fn set_in_flight_limit(&mut self, n: usize) {
        self.federation.set_in_flight_limit(n);
    }

    /// The configured in-flight limit (0 = unlimited).
    pub fn in_flight_limit(&self) -> usize {
        self.federation.in_flight_limit()
    }

    /// Toggles the magic-sets demand transformation for goal-directed
    /// queries ([`Self::answer`] and snapshot answers). The rewrite is
    /// answer-preserving and only ever applied on the query path — full
    /// materialization ([`Self::run`]) ignores it — so flipping it
    /// neither dirties the base nor invalidates a cached model.
    pub fn set_magic_sets(&mut self, on: bool) {
        self.eval_options.magic_sets = on;
    }

    /// Whether goal-directed queries apply the magic-sets rewrite.
    pub fn magic_sets(&self) -> bool {
        self.eval_options.magic_sets
    }

    /// Read access to the GCM base (the built engine).
    pub fn base(&self) -> &GcmBase {
        &self.base
    }

    /// Mutable access to the GCM base, for the goal-directed query path
    /// (the magic-sets rewrite interns adorned predicate names).
    pub(crate) fn base_mut(&mut self) -> &mut GcmBase {
        &mut self.base
    }

    /// Removes the most recently defined view (used for one-off queries).
    /// When the base is current, exactly the view's own rules are removed
    /// from the live engine — a staged retraction the next
    /// [`Self::publish`] maintains incrementally — instead of invalidating
    /// the whole program.
    pub(crate) fn pop_view(&mut self) {
        self.knowledge.views.pop();
        if self.needs_rebuild {
            // Spans are only valid for a current base; the pending
            // rebuild reloads the (now shorter) view list anyway.
            return;
        }
        match self.view_spans.pop() {
            Some((start, end)) => {
                self.base.flogic_mut().engine_mut().remove_rules(start, end);
                self.shared_base = None;
            }
            None => self.needs_rebuild = true,
        }
    }

    /// Defines an integrated view (an IVD): FL rule text over source
    /// classes and the domain map (Example 4). When the base is current,
    /// the view's rules are loaded into the live engine immediately (and
    /// their span recorded for [`Self::pop_view`]); the staged write plane
    /// picks the change up at the next [`Self::publish`].
    pub fn define_view(&mut self, fl_text: &str) -> Result<()> {
        if !self.needs_rebuild {
            let start = self.base.flogic().engine().rules().len();
            if let Err(e) = self.base.flogic_mut().load(fl_text) {
                // Partial loads leave stray rules; resync via rebuild.
                self.needs_rebuild = true;
                return Err(e.into());
            }
            let end = self.base.flogic().engine().rules().len();
            self.view_spans.push((start, end));
            self.shared_base = None;
        }
        self.knowledge.views.push(fl_text.to_string());
        Ok(())
    }

    /// Rebuilds the GCM base from scratch: DM rules, every applied CM,
    /// anchor facts, views. Called lazily by [`Self::run`] after any
    /// change (DM refinements cannot be retracted incrementally).
    pub fn rebuild(&mut self) -> Result<()> {
        let mut base = GcmBase::new();
        base.flogic_mut().load_datalog(DM_OPS_RULES)?;
        let prog = rules::compile(&self.knowledge.dm, self.knowledge.mode);
        base.flogic_mut().load(&prog.text)?;
        for cm in &self.knowledge.cms {
            base.apply(cm)?;
        }
        // Anchor facts: anchored(source, concept) for source selection at
        // the logic level too.
        for src in self.federation.sources() {
            for concept in self.knowledge.index.concepts_of(src.id) {
                if let Some(cname) = self.knowledge.dm.name(concept) {
                    let text = format!("anchored({:?}, {:?}).", src.name, cname);
                    base.flogic_mut().load(&text)?;
                }
            }
        }
        let mut spans = Vec::with_capacity(self.knowledge.views.len());
        for v in &self.knowledge.views {
            let start = base.flogic().engine().rules().len();
            base.flogic_mut().load(v)?;
            spans.push((start, base.flogic().engine().rules().len()));
        }
        // From here every mutation is recorded: the staged write plane
        // starts at the freshly built program.
        base.flogic_mut().engine_mut().begin_delta();
        self.base = base;
        self.view_spans = spans;
        self.model = None;
        self.shared_base = None;
        self.needs_rebuild = false;
        Ok(())
    }

    /// Bulk-loads every row of every registered source into the GCM base
    /// as `inst`/`mi` facts (plus `relinst` for anchor attributes) — the
    /// *materialize-everything* strategy, used for loose federation and as
    /// the baseline the §5 push-down plan is compared against.
    ///
    /// Runs as a two-phase pipeline: the **fetch phase** scans every
    /// (source, class) pair concurrently through
    /// [`Federation::fetch_parallel`] (one worker job per source; tune
    /// with [`Federation::set_fetch_threads`]), then the **evaluate
    /// phase** applies the fetched batches in registration order — so
    /// the loaded base, including its interner, is bit-identical to what
    /// serial fetching produced.
    ///
    /// Degrades gracefully: a failing (or breaker-skipped) source simply
    /// contributes no rows, and CM-invalid rows are quarantined rather
    /// than loaded. Inspect [`Self::report`] afterwards for per-source
    /// outcomes and the completeness flag.
    pub fn materialize_all(&mut self) -> Result<usize> {
        self.begin_report();
        if self.needs_rebuild {
            self.rebuild()?;
        }
        // Fetch phase: every (source, class) scan, in registration order.
        let requests: Vec<FetchRequest> = self
            .federation
            .sources()
            .iter()
            .flat_map(|s| {
                s.classes
                    .iter()
                    .map(|class| FetchRequest::scan(s.name.as_str(), class.as_str()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let fetched = self.federation.fetch_parallel(&requests)?;
        // Evaluate phase: apply batches in request (= registration) order.
        let mut loaded = 0usize;
        for batch in &fetched.batches {
            for row in &batch.rows {
                self.apply_row(&batch.source, &batch.query.class, row)?;
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Loads one row into the base as GCM declarations, after validating
    /// it against the source's exported CM (unknown source, unexported
    /// class, and malformed rows are typed errors — not silently
    /// accepted).
    pub fn load_row(&mut self, source: &str, class: &str, row: &ObjectRow) -> Result<()> {
        let src = self.federation.source(source)?;
        if !src.classes.iter().any(|c| c == class) {
            return Err(MediatorError::UnknownClass {
                class: class.to_string(),
            });
        }
        if let Err(reason) = src.validate_row(class, row) {
            return Err(MediatorError::Source {
                name: source.to_string(),
                error: SourceError::MalformedRow {
                    row: row.id.clone(),
                    reason,
                },
            });
        }
        self.apply_row(source, class, row)
    }

    /// The unchecked load path, for rows already validated by
    /// [`Self::fetch`]. The row's facts are **staged**: they land in the
    /// live engine and its changelog, and the cached model stays valid
    /// as the pre-delta base until [`Self::publish`] applies the
    /// accumulated delta incrementally.
    pub(crate) fn apply_row(&mut self, source: &str, class: &str, row: &ObjectRow) -> Result<()> {
        apply_row_to(&mut self.base, source, class, row)?;
        self.shared_base = None;
        Ok(())
    }

    /// Retracts a previously loaded row — the delete plane's mirror of
    /// [`Self::load_row`]: the row's `inst` fact and each of its `mi`
    /// attribute facts are removed from the base, staged in the write
    /// plane like any other mutation (the next [`Self::publish`]
    /// maintains the model incrementally, DRed-style). Returns how many
    /// facts were actually present and removed — `0` means the row was
    /// never loaded (or already retracted), which is not an error. The
    /// class declaration itself stays: other rows may still use it.
    pub fn retract_row(&mut self, source: &str, class: &str, row: &ObjectRow) -> Result<usize> {
        self.federation.source(source)?;
        let obj = format!("{source}.{}", row.id);
        let mut removed = 0usize;
        if self.base.retract_decl(&GcmDecl::Instance {
            obj: obj.clone(),
            class: class.to_string(),
        }) {
            removed += 1;
        }
        for (attr, value) in &row.attrs {
            if self.base.retract_decl(&GcmDecl::MethodInst {
                obj: obj.clone(),
                method: attr.clone(),
                value: value.clone(),
            }) {
                removed += 1;
            }
        }
        if removed > 0 {
            self.shared_base = None;
        }
        Ok(removed)
    }

    /// A fingerprint of everything the base *program* is built from — the
    /// domain map, execution mode, applied CMs, views, and evaluation
    /// options. The cached model is keyed by it: [`Self::run`] discards a
    /// cached model whose fingerprint no longer matches, even if no dirty
    /// flag was raised (belt-and-braces for the cross-query base cache).
    /// Instance facts are deliberately excluded: fact loads and
    /// retractions flow through the engine changelog, which [`Self::run`]
    /// drains into the cached model incrementally.
    fn base_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", self.knowledge.dm).hash(&mut h);
        format!("{:?}", self.knowledge.mode).hash(&mut h);
        let mut opts = self.eval_options.clone();
        // The cancellation token is identity, not semantics: it never
        // changes what a completed evaluation computes, so it must not
        // invalidate a cached model either.
        opts.cancel = None;
        // The magic-sets toggle only affects goal-directed query plans;
        // full materialization (`run`) never applies the rewrite, so the
        // cached base model is always the full one and stays valid across
        // `set_magic_sets` calls.
        opts.magic_sets = true;
        format!("{opts:?}").hash(&mut h);
        // CMs and views are deliberately *not* hashed: their lifecycle
        // flows through the staged write plane (the engine changelog plus
        // `needs_rebuild`), so a view push/pop or an incremental CM
        // application updates the cached model by delta instead of
        // invalidating it wholesale.
        h.finish()
    }

    /// Evaluates the base (rebuilding first if needed) and caches the
    /// model across queries; the cache key is [`Self::base_fingerprint`].
    ///
    /// This is the **publish point** of the staged write plane: mutations
    /// since the last run (loaded rows, retracted rows, incremental CM
    /// applications, view pushes/pops) have been accumulating in the
    /// engine's changelog, and when a cached model exists they are
    /// applied to it *incrementally* ([`kind_datalog::Engine::apply_delta`]
    /// — monotone additions ride delta rounds, retractions
    /// overdelete-and-rederive, non-monotone residues rebuild only their
    /// strata). Only when no model is cached — first run, rebuild, or a
    /// prior publish failure — does the evaluation start cold.
    pub fn run(&mut self) -> Result<&Model> {
        let fp = self.base_fingerprint();
        if self.model.is_some() && self.model_fp != Some(fp) {
            self.model = None;
        }
        if self.needs_rebuild {
            self.rebuild()?;
        }
        // Drain staged mutations unconditionally: whatever happens below,
        // the model produced reflects the engine's *current* state.
        let delta = self.base.flogic_mut().engine_mut().take_delta();
        if let Some(d) = delta.filter(|d| !d.is_empty()) {
            if let Some(prev) = self.model.take() {
                // On error the model stays `None` (the delta is already
                // consumed), so the next run evaluates cold — never a
                // stale model passed off as current.
                let next =
                    self.base
                        .flogic()
                        .engine()
                        .apply_delta(&prev, &d, &self.eval_options)?;
                self.model = Some(Arc::new(next));
            }
        }
        if self.model.is_none() {
            let m = self.base.run_with(&self.eval_options)?;
            self.model = Some(Arc::new(m));
        }
        self.model_fp = Some(fp);
        Ok(self.model.as_ref().expect("just set"))
    }

    /// Ensures the base *program* is current — rebuilding only when a
    /// non-delta change demands it — without forcing an evaluation (the
    /// cold query path evaluates goal-directed on the engine itself).
    pub(crate) fn ensure_base_current(&mut self) -> Result<()> {
        if self.needs_rebuild {
            self.rebuild()?;
        }
        Ok(())
    }

    /// Publishes the staged writes: the write-plane name for
    /// [`Self::run`]. Everything asserted or retracted since the last
    /// publish is folded into the cached model — incrementally when one
    /// exists — and the result becomes what queries and snapshots see.
    ///
    /// Publication is **demand-driven**: when anyone besides the
    /// mediator holds the [`Self::hub`], the refreshed snapshot is also
    /// installed there (bumping the hub epoch) so hub readers observe
    /// the new state. With no subscribers the install — and the base
    /// clone a snapshot implies — is skipped entirely, keeping the bare
    /// write path as cheap as before the hub existed.
    pub fn publish(&mut self) -> Result<&Model> {
        if Arc::strong_count(&self.hub) > 1 {
            self.publish_snapshot()?;
        } else {
            self.run()?;
        }
        Ok(self.model.as_ref().expect("run() caches the model"))
    }

    /// The snapshot publication hub. Cloning the returned `Arc` counts
    /// as *subscribing*: from then on every [`Self::publish`] installs
    /// the fresh snapshot into the hub for wait-free loads. Readers that
    /// only ever want the current state should hold the hub and
    /// [`SnapshotHub::load`] per request rather than calling
    /// [`Self::snapshot`] through a lock on the mediator.
    pub fn hub(&self) -> Arc<SnapshotHub> {
        Arc::clone(&self.hub)
    }

    /// Publishes staged writes *and* unconditionally installs the
    /// resulting snapshot into the hub, returning the pinned
    /// publication. This is the explicit serving-plane entry point —
    /// call it once at startup to seed the hub, then let
    /// [`Self::publish`] keep it fresh.
    pub fn publish_snapshot(&mut self) -> Result<PinnedSnapshot> {
        let snap = self.snapshot()?;
        self.hub.install(snap);
        Ok(self.hub.load().expect("just installed"))
    }

    /// Whether mutations are staged and waiting for the next
    /// [`Self::publish`] (a pending rebuild counts: the whole program is
    /// the delta).
    pub fn publish_pending(&self) -> bool {
        self.needs_rebuild
            || self
                .base
                .flogic()
                .engine()
                .pending_delta()
                .is_some_and(|d| !d.is_empty())
    }

    /// Drops the cached model and forces the next evaluation to rebuild
    /// the base and run cold — the baseline the incremental publish path
    /// is benchmarked against, and an operator escape hatch should the
    /// cache ever be suspected.
    pub fn invalidate(&mut self) {
        self.model = None;
        self.model_fp = None;
        self.needs_rebuild = true;
        self.shared_base = None;
    }

    /// The cached model, if a publish has happened and nothing discarded
    /// it since (test instrumentation: pointer identity tells whether an
    /// operation kept the cache warm).
    #[cfg(test)]
    pub(crate) fn cached_model(&self) -> Option<&Arc<Model>> {
        self.model.as_ref()
    }

    /// Freezes the current state into an immutable, `Send + Sync`
    /// [`QuerySnapshot`]: the evaluated model, the (cloned) GCM base, and
    /// the resolved domain-map view, all behind `Arc`s. Call after
    /// [`Self::materialize_all`]/[`Self::rebuild`]; the snapshot then
    /// serves [`QuerySnapshot::query_fl`]/[`QuerySnapshot::answer`] from
    /// any number of threads with no locks on the hot path, while the
    /// mediator remains free to keep evolving.
    /// Snapshots are **structurally shared**: the model `Arc` comes from
    /// the publish cache (and after an incremental publish, relations of
    /// untouched strata inside it are shared with the previous model);
    /// the domain map, resolved view, and semantic index `Arc`s are
    /// reused for as long as registration does not change them; and the
    /// base clone itself is reused verbatim across consecutive snapshots
    /// when no write intervened. That clone copies no symbol, rule or
    /// fact either: `GcmBase` shares them copy-on-write, so the
    /// mediator's next write copies only the part it writes (the symbol
    /// table when a row brings new names, one relation per predicate it
    /// asserts into).
    pub fn snapshot(&mut self) -> Result<QuerySnapshot> {
        self.run()?;
        let base = match &self.shared_base {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(self.base.clone());
                self.shared_base = Some(Arc::clone(&b));
                b
            }
        };
        Ok(QuerySnapshot::new(
            base,
            Arc::clone(self.model.as_ref().expect("run() caches the model")),
            self.knowledge.dm_arc(),
            self.knowledge.resolved_arc(),
            self.knowledge.index_arc(),
            self.eval_options.clone(),
        ))
    }

    /// Runs an FL query pattern (e.g. `"X : Neuron"` or
    /// `"protein_distribution(P, C, A)"`) against the evaluated model.
    pub fn query_fl(&mut self, pattern: &str) -> Result<Vec<Vec<Term>>> {
        self.run()?;
        let model = Arc::clone(self.model.as_ref().expect("model cached"));
        self.base
            .flogic_mut()
            .query(&model, pattern)
            .map_err(MediatorError::from)
    }

    /// Explains why an FL fact holds in the current model (e.g.
    /// `"SENSELAB.nt0 : neurotransmission"` or a derived view atom) as a
    /// rendered derivation tree. `None` when the fact does not hold.
    pub fn explain_fl(&mut self, fact: &str) -> Result<Option<String>> {
        self.run()?;
        let model = Arc::clone(self.model.as_ref().expect("model cached"));
        self.base
            .flogic_mut()
            .explain(&model, fact, 16)
            .map_err(MediatorError::from)
    }

    /// Renders a term from a query result.
    pub fn show(&self, t: &Term) -> String {
        self.base.flogic().engine().show(t)
    }

    /// The inconsistency witnesses of the current model.
    pub fn witnesses(&mut self) -> Result<Vec<String>> {
        self.run()?;
        let model = Arc::clone(self.model.as_ref().expect("model cached"));
        Ok(self.base.witnesses(&model))
    }

    /// The warm [`Mediator::answer`] path (see `query.rs`): evaluates a
    /// one-off view on an overlay of the base (which reads through the
    /// base's symbols and rules without copying them), seeded with the
    /// cached base-layer model so only query-relevant strata are
    /// recomputed (`run_for_query_seeded`). Returns `None` when seeding would
    /// be unsound — the head predicate already has facts in the base
    /// model — so the caller falls back to the cold path.
    pub(crate) fn answer_via_base_cache(
        &mut self,
        rule_text: &str,
        head_pred: &str,
        head_args: &[Term],
        exported: &[String],
        scratch: &Interner,
    ) -> Result<Option<RowsAndSources>> {
        self.run()?;
        let base_model = Arc::clone(self.model.as_ref().expect("run() caches the model"));
        let collides = self
            .base
            .flogic()
            .engine()
            .lookup(head_pred)
            .is_some_and(|p| base_model.facts.relation(p).is_some_and(|r| !r.is_empty()));
        if collides {
            return Ok(None);
        }
        // The base itself is not touched below: the cached model stays
        // valid, and the shared `Arc` means no take/put juggling.
        self.answer_on_overlay(
            rule_text,
            head_pred,
            head_args,
            exported,
            scratch,
            &base_model,
        )
        .map(Some)
    }

    fn answer_on_overlay(
        &mut self,
        rule_text: &str,
        head_pred: &str,
        head_args: &[Term],
        exported: &[String],
        scratch: &Interner,
        base_model: &Model,
    ) -> Result<RowsAndSources> {
        let mut work = self.base.overlay();
        let new_rules_from = work.flogic().engine().rules().len();
        work.flogic_mut().load(rule_text)?;
        // Fetch phase: scan every source exporting a mentioned class,
        // concurrently, then apply batches in the deterministic request
        // order.
        let mut contacted: BTreeSet<String> = BTreeSet::new();
        let mut requests: Vec<FetchRequest> = Vec::new();
        for class in exported {
            for src in self.sources_exporting(class) {
                contacted.insert(src.clone());
                requests.push(FetchRequest::scan(src, class.as_str()));
            }
        }
        let fetched = self.federation.fetch_parallel(&requests)?;
        for batch in &fetched.batches {
            for row in &batch.rows {
                apply_row_to(&mut work, &batch.source, &batch.query.class, row)?;
            }
        }
        // The goal's constant arguments were interned by the caller's
        // scratch parse; map them into the overlay so the pattern (and
        // the magic-sets demand seeds derived from it) bind correctly.
        let goal_args: Vec<Term> = head_args
            .iter()
            .map(|t| reintern_term(scratch, work.flogic_mut().engine_mut(), t))
            .collect();
        let goal = kind_datalog::Atom::new(
            work.flogic()
                .engine()
                .lookup(head_pred)
                .expect("head predicate interned by view load"),
            goal_args,
        );
        // Goal-directed evaluation: seeded from the cached base model,
        // with the magic-sets rewrite specializing the delta to the
        // goal's bindings when `EvalOptions::magic_sets` is on.
        let model = work.flogic_mut().run_for_query_seeded(
            &goal,
            base_model,
            new_rules_from,
            &self.eval_options,
        )?;
        let rows = export_rows(
            model.query(&goal),
            work,
            self.base.flogic_mut().engine_mut(),
        );
        Ok((
            rows,
            contacted.into_iter().collect(),
            model.stats,
            model.profile,
        ))
    }
}

/// Loads one row's GCM declarations into `base` — the shared load path
/// for the mediator's own base and for per-query overlays of it.
pub(crate) fn apply_row_to(
    base: &mut GcmBase,
    source: &str,
    class: &str,
    row: &ObjectRow,
) -> Result<()> {
    let obj = format!("{source}.{}", row.id);
    base.apply_decl(&GcmDecl::Instance {
        obj: obj.clone(),
        class: class.to_string(),
    })?;
    for (attr, value) in &row.attrs {
        base.apply_decl(&GcmDecl::MethodInst {
            obj: obj.clone(),
            method: attr.clone(),
            value: value.clone(),
        })?;
    }
    Ok(())
}

/// Moves answer rows out of a per-call overlay of `to` into `to`'s own
/// symbol space, so `show` resolves them. Symbols below `to`'s count are
/// the ones the overlay reads through and carry over as they are; names
/// the overlay interned itself (ids of rows fetched for this query) are
/// interned into `to` — after the overlay is dropped, since interning
/// while it still shares `to`'s symbol table would copy the table.
fn export_rows(
    rows: Vec<Vec<Term>>,
    overlay: GcmBase,
    to: &mut kind_datalog::Engine,
) -> Vec<Vec<Term>> {
    let shared = to.symbols().len();
    let mut names: HashMap<Sym, String> = HashMap::new();
    let syms = overlay.flogic().engine().symbols();
    for t in rows.iter().flatten() {
        map_syms(t, &mut |s| {
            if s.index() >= shared {
                names
                    .entry(s)
                    .or_insert_with(|| syms.resolve(s).to_string());
            }
            s
        });
    }
    drop(overlay);
    if names.is_empty() {
        return rows;
    }
    let fresh: HashMap<Sym, Sym> = names.into_iter().map(|(s, n)| (s, to.sym(&n))).collect();
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|t| map_syms(t, &mut |s| fresh.get(&s).copied().unwrap_or(s)))
                .collect()
        })
        .collect()
}

/// Rebuilds `t` with every symbol passed through `f`.
fn map_syms(t: &Term, f: &mut impl FnMut(Sym) -> Sym) -> Term {
    match t {
        Term::Const(s) => Term::Const(f(*s)),
        Term::Func(s, args) => {
            let s = f(*s);
            Term::func(s, args.iter().map(|a| map_syms(a, f)).collect())
        }
        other => other.clone(),
    }
}

/// Recursively re-interns a ground term from one symbol table into
/// another engine's. Variables and integers pass through unchanged.
pub(crate) fn reintern_term(from: &Interner, to: &mut kind_datalog::Engine, t: &Term) -> Term {
    match t {
        Term::Const(s) => to.constant(from.resolve(*s)),
        Term::Func(f, args) => {
            let name = from.resolve(*f).to_string();
            let mapped: Vec<Term> = args.iter().map(|a| reintern_term(from, to, a)).collect();
            let sym = to.sym(&name);
            Term::func(sym, mapped)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::{Capability, MemoryWrapper};
    use kind_dm::figures;
    use kind_gcm::GcmValue;

    fn simple_wrapper(name: &str, class: &str, concept: &str, n: usize) -> Arc<MemoryWrapper> {
        let mut w = MemoryWrapper::new(name);
        w.caps.push(Capability {
            class: class.into(),
            pushable: vec!["location".into()],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: class.into(),
            concept: concept.into(),
        });
        for i in 0..n {
            w.add_row(
                class,
                &format!("o{i}"),
                vec![
                    ("location", GcmValue::Id(concept.into())),
                    ("value", GcmValue::Int(i as i64)),
                ],
            );
        }
        Arc::new(w)
    }

    #[test]
    fn registration_builds_semantic_index() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let w = simple_wrapper("SYNAPSE", "spine_data", "Spine", 5);
        let id = m.register(w).unwrap();
        let spine = m.dm().lookup("Spine").unwrap();
        assert_eq!(m.index().count(id, spine), 5);
        // Source selection: Spine is an Ion_Regulating_Component.
        assert_eq!(
            m.sources_below("Ion_Regulating_Component").unwrap(),
            vec!["SYNAPSE".to_string()]
        );
        assert!(m.sources_below("Neuron").unwrap().is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("A", "c", "Spine", 1)).unwrap();
        assert!(matches!(
            m.register(simple_wrapper("A", "c", "Spine", 1)),
            Err(MediatorError::DuplicateSource { .. })
        ));
    }

    #[test]
    fn unknown_anchor_concept_rejected() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        assert!(matches!(
            m.register(simple_wrapper("A", "c", "NoSuchConcept", 1)),
            Err(MediatorError::UnknownConcept { .. })
        ));
    }

    #[test]
    fn dm_contribution_extends_the_map() {
        // Figure 3 flow: registering MyNeuron/MyDendrite refines the DM.
        let mut m = Mediator::new(figures::figure3_base(), ExecMode::Assertion);
        assert!(m.dm().lookup("MyNeuron").is_none());
        let mut w = MemoryWrapper::new("MYLAB");
        w.dm_axioms = figures::FIGURE3_REGISTRATION_AXIOMS.to_string();
        w.caps.push(Capability {
            class: "my_neurons".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "my_neurons".into(),
            concept: "MyNeuron".into(),
        });
        w.add_row("my_neurons", "m1", vec![]);
        m.register(Arc::new(w)).unwrap();
        assert!(m.dm().lookup("MyNeuron").is_some());
        // Derived knowledge: MyNeuron projects to GPE, so the source is
        // found below Medium_Spiny_Neuron.
        assert_eq!(
            m.sources_below("Medium_Spiny_Neuron").unwrap(),
            vec!["MYLAB".to_string()]
        );
    }

    #[test]
    fn materialize_and_query_loose_federation() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 3))
            .unwrap();
        m.materialize_all().unwrap();
        let rows = m.query_fl("X : spines").unwrap();
        assert_eq!(rows.len(), 3);
        // Rows carry source-qualified object names.
        let shown = m.show(&rows[0][0]);
        assert!(shown.starts_with("S1."), "{shown}");
    }

    #[test]
    fn views_evaluate_over_sources_and_dm() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 2))
            .unwrap();
        m.define_view("big(X) :- X : spines, X[value -> V], V >= 1.")
            .unwrap();
        m.materialize_all().unwrap();
        assert_eq!(m.query_fl("big(X)").unwrap().len(), 1);
    }

    #[test]
    fn fetch_applies_residual_filters() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 4))
            .unwrap();
        // `value` is not pushable: wrapper ships all 4, mediator keeps 1.
        let rows = m
            .fetch(
                "S1",
                &SourceQuery::scan("spines").with("value", GcmValue::Int(2)),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(m.stats().rows_shipped, 4);
        assert_eq!(m.stats().rows_kept, 1);
        // `location` is pushable: wrapper ships only matches.
        let rows = m
            .fetch(
                "S1",
                &SourceQuery::scan("spines").with("location", GcmValue::Id("Spine".into())),
            )
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(m.stats().rows_shipped, 8);
    }

    #[test]
    fn lub_through_mediator() {
        let m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        assert_eq!(
            m.lub(&["Purkinje_Cell", "Pyramidal_Cell"]).unwrap(),
            Some("Spiny_Neuron".to_string())
        );
    }

    #[test]
    fn incremental_registration_equals_rebuild() {
        // Register two sources; the second goes through the incremental
        // path. Force a rebuild on a copy and compare observable state.
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("A", "ca", "Spine", 2)).unwrap();
        m.run().unwrap(); // base now current
        m.register(simple_wrapper("B", "cb", "Shaft", 3)).unwrap();
        let inc_rows = m.query_fl(r#"anchored(S, C)"#).unwrap().len();
        m.rebuild().unwrap();
        let rebuilt_rows = m.query_fl(r#"anchored(S, C)"#).unwrap().len();
        assert_eq!(inc_rows, rebuilt_rows);
        assert_eq!(inc_rows, 2);
    }

    #[test]
    fn explanations_cross_the_whole_stack() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 1))
            .unwrap();
        m.define_view("X : noted :- X : spines, X[value -> V], V >= 0.")
            .unwrap();
        m.materialize_all().unwrap();
        let why = m
            .explain_fl(r#""S1.o0" : noted"#)
            .unwrap()
            .expect("fact holds");
        // The tree goes: view rule -> inst fact (edb) + mi fact (edb).
        assert!(why.contains("[rule #"), "{why}");
        assert!(why.contains("[edb]"), "{why}");
        assert!(m.explain_fl(r#""S1.o0" : nonsense"#).unwrap().is_none());
    }

    #[test]
    fn template_call_through_mediator() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let mut w = MemoryWrapper::new("T");
        w.caps.push(Capability {
            class: "m".into(),
            pushable: vec!["loc".into()],
        });
        w.query_templates.push(crate::wrapper::QueryTemplate {
            name: "by_loc".into(),
            class: "m".into(),
            params: vec!["loc".into()],
        });
        w.anchor_decls.push(Anchor::Fixed {
            class: "m".into(),
            concept: "Spine".into(),
        });
        w.add_row("m", "a", vec![("loc", GcmValue::Id("Spine".into()))]);
        w.add_row("m", "b", vec![("loc", GcmValue::Id("Shaft".into()))]);
        m.register(Arc::new(w)).unwrap();
        let rows = m
            .call_template("T", "by_loc", &[GcmValue::Id("Spine".into())])
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "a");
        // Unknown template / wrong arity are errors.
        assert!(m.call_template("T", "nope", &[]).is_err());
        assert!(m.call_template("T", "by_loc", &[]).is_err());
    }

    #[test]
    fn derived_anchors_computed_at_the_mediator() {
        // Objects carry a numeric depth; the source declares a *rule*
        // mapping depths to concepts — the source itself never mentions
        // concept names per row.
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        let mut w = MemoryWrapper::new("DEPTHS");
        w.caps.push(Capability {
            class: "probe".into(),
            pushable: vec![],
        });
        w.anchor_decls.push(Anchor::Derived {
            class: "probe".into(),
            rule: r#"anchor_at(X, "Spine") :- X : probe, X[depth -> D], D >= 5.
                     anchor_at(X, "Shaft") :- X : probe, X[depth -> D], D < 5."#
                .into(),
        });
        w.add_row("probe", "p1", vec![("depth", GcmValue::Int(9))]);
        w.add_row("probe", "p2", vec![("depth", GcmValue::Int(2))]);
        w.add_row("probe", "p3", vec![("depth", GcmValue::Int(7))]);
        let id = m.register(Arc::new(w)).unwrap();
        let spine = m.dm().lookup("Spine").unwrap();
        let shaft = m.dm().lookup("Shaft").unwrap();
        assert_eq!(m.index().count(id, spine), 2);
        assert_eq!(m.index().count(id, shaft), 1);
    }

    #[test]
    fn subsumption_based_source_selection() {
        let mut m = Mediator::from_axioms(
            "Spiny_Neuron = Neuron and exists has.Spine.
             Purkinje_Cell, Pyramidal_Cell < Spiny_Neuron.
             Granule_Cell < Neuron.",
            ExecMode::Assertion,
        )
        .unwrap();
        m.register(simple_wrapper("P", "pdata", "Purkinje_Cell", 2))
            .unwrap();
        m.register(simple_wrapper("G", "gdata", "Granule_Cell", 2))
            .unwrap();
        // A query about spiny things finds only the Purkinje source.
        let spiny = m
            .select_sources_by_expression("Neuron and exists has.Spine")
            .unwrap();
        assert_eq!(spiny, vec!["P".to_string()]);
        // A plain neuron query finds both.
        let neurons = m.select_sources_by_expression("Neuron").unwrap();
        assert_eq!(neurons, vec!["P".to_string(), "G".to_string()]);
    }

    /// Renders a published model's true and undefined facts
    /// name-resolved, so models from independently driven mediators are
    /// comparable bit-for-bit.
    fn fact_dump(
        m: &Mediator,
    ) -> (
        std::collections::BTreeSet<String>,
        std::collections::BTreeSet<String>,
    ) {
        let model = Arc::clone(m.cached_model().expect("published"));
        let e = m.base().flogic().engine();
        let render = |fs: &kind_datalog::FactStore| {
            fs.iter()
                .map(|(p, t)| {
                    let args: Vec<String> = t.iter().map(|x| e.show(x)).collect();
                    format!("{}({})", e.name(p), args.join(","))
                })
                .collect()
        };
        (render(&model.facts), render(&model.undefined))
    }

    fn extra_row() -> ObjectRow {
        ObjectRow {
            id: "extra".into(),
            attrs: vec![
                ("location".into(), GcmValue::Id("Spine".into())),
                ("value".into(), GcmValue::Int(7)),
            ],
        }
    }

    fn existing_row(i: i64) -> ObjectRow {
        ObjectRow {
            id: format!("o{i}"),
            attrs: vec![
                ("location".into(), GcmValue::Id("Spine".into())),
                ("value".into(), GcmValue::Int(i)),
            ],
        }
    }

    /// The write-plane soundness contract: a history of loads and
    /// retractions published eagerly (incremental maintenance after every
    /// mutation) must end at the exact model a single cold evaluation of
    /// the same final engine state computes.
    #[test]
    fn incremental_publish_matches_cold_evaluation() {
        let drive = |eager: bool| {
            let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
            m.register(simple_wrapper("S1", "spines", "Spine", 3))
                .unwrap();
            m.define_view("big(X) :- X : spines, X[value -> V], V >= 1.")
                .unwrap();
            m.materialize_all().unwrap();
            if eager {
                m.publish().unwrap();
            }
            m.load_row("S1", "spines", &extra_row()).unwrap();
            if eager {
                assert!(m.publish_pending());
                m.publish().unwrap();
            }
            // inst + two mi facts per row.
            assert_eq!(m.retract_row("S1", "spines", &existing_row(2)).unwrap(), 3);
            m.publish().unwrap();
            assert!(!m.publish_pending());
            fact_dump(&m)
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn retraction_publish_removes_derived_facts() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 3))
            .unwrap();
        m.define_view("big(X) :- X : spines, X[value -> V], V >= 1.")
            .unwrap();
        m.materialize_all().unwrap();
        assert_eq!(m.query_fl("big(X)").unwrap().len(), 2); // o1, o2
        let before = Arc::as_ptr(m.cached_model().unwrap());
        m.retract_row("S1", "spines", &existing_row(2)).unwrap();
        m.publish().unwrap();
        // The publish was incremental (a new model was derived from the
        // cached one, not recomputed after an invalidation)...
        assert_ne!(Arc::as_ptr(m.cached_model().unwrap()), before);
        // ...and the retracted row's own facts *and* its derived view
        // member are gone.
        assert_eq!(m.query_fl("X : spines").unwrap().len(), 2);
        assert_eq!(m.query_fl("big(X)").unwrap().len(), 1);
        // Retracting a never-loaded row is a no-op, not an error.
        assert_eq!(m.retract_row("S1", "spines", &existing_row(9)).unwrap(), 0);
    }

    /// A publish with nothing staged must not touch the cached model —
    /// pointer-identical `Arc`, no re-evaluation.
    #[test]
    fn quiet_publish_is_free() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 2))
            .unwrap();
        m.materialize_all().unwrap();
        m.publish().unwrap();
        // Hold the model itself, not just its address: once the cache
        // drops it, the allocator may hand the same address to the next
        // model.
        let held = Arc::clone(m.cached_model().unwrap());
        m.publish().unwrap();
        assert!(Arc::ptr_eq(m.cached_model().unwrap(), &held));
        // `invalidate` is the escape hatch: the next publish recomputes.
        m.invalidate();
        assert!(m.publish_pending());
        m.publish().unwrap();
        assert!(!Arc::ptr_eq(m.cached_model().unwrap(), &held));
    }

    #[test]
    fn anchored_facts_visible_to_rules() {
        let mut m = Mediator::new(figures::figure1(), ExecMode::Assertion);
        m.register(simple_wrapper("S1", "spines", "Spine", 1))
            .unwrap();
        let rows = m.query_fl(r#"anchored("S1", C)"#).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(m.show(&rows[0][1]), "Spine");
    }
}
