#include "workload/chem2bio.h"

#include <string>

#include "rdf/term.h"
#include "util/random.h"

namespace rapida::workload {

namespace {
std::string N(const std::string& local) { return kChemNs + local; }
}  // namespace

rdf::Graph GenerateChem2Bio(const ChemConfig& config) {
  rdf::Graph g;
  Random rng(config.seed);
  const ZipfTable interaction_gene_zipf(config.num_genes, 0.8);
  const ZipfTable compound_zipf(config.num_compounds, 0.6);
  const ZipfTable assay_gene_zipf(config.num_genes, 0.7);
  const ZipfTable effect_zipf(5, 0.5);
  const ZipfTable medline_gene_zipf(config.num_genes, 0.9);
  const ZipfTable disease_zipf(config.num_diseases, 0.8);

  // --- gene entries: gi (literal id) + geneSymbol ---
  for (int i = 0; i < config.num_genes; ++i) {
    std::string u = N("GeneEntry" + std::to_string(i + 1));
    g.AddInt(u, N("gi"), 100000 + i);
    g.AddLit(u, N("geneSymbol"), "GENE" + std::to_string(i + 1));
  }

  // --- drugs: Generic_Name + CID (compound id) ---
  for (int i = 0; i < config.num_drugs; ++i) {
    std::string dr = N("Drug" + std::to_string(i + 1));
    std::string name =
        i == 0 ? "Dexamethasone" : "Drug-" + std::to_string(i + 1);
    g.AddLit(dr, N("Generic_Name"), name);
    g.AddInt(dr, N("CID"),
             1 + static_cast<int64_t>(rng.Uniform(config.num_compounds)));
  }

  // --- drug-gene interactions: gene (symbol literal) + DBID (drug) ---
  int num_interactions = config.num_drugs * 3;
  for (int i = 0; i < num_interactions; ++i) {
    std::string di = N("Interaction" + std::to_string(i + 1));
    uint64_t gene = interaction_gene_zipf.Sample(&rng);
    g.AddLit(di, N("gene"), "GENE" + std::to_string(gene + 1));
    uint64_t drug = rng.Uniform(config.num_drugs);
    g.AddIri(di, N("DBID"), N("Drug" + std::to_string(drug + 1)));
  }

  // --- bioassays: CID + outcome + Score + gi ---
  for (int i = 0; i < config.num_assays; ++i) {
    std::string b = N("BioAssay" + std::to_string(i + 1));
    g.AddInt(b, N("CID"),
             1 + static_cast<int64_t>(compound_zipf.Sample(&rng)));
    g.AddLit(b, N("outcome"), rng.Bernoulli(0.6) ? "active" : "inactive");
    g.AddInt(b, N("Score"), static_cast<int64_t>(rng.Uniform(100)));
    uint64_t gene = assay_gene_zipf.Sample(&rng);
    g.AddInt(b, N("assay_gi"), 100000 + static_cast<int64_t>(gene));
  }

  // --- pathways: protein (gene entry) + Pathway_name + pathwayid ---
  const char* kPathwayNames[] = {
      "MAPK signaling pathway - human", "Apoptosis", "Cell cycle",
      "p53 signaling pathway", "Calcium signaling pathway"};
  int pathway_entry = 0;
  for (int i = 0; i < config.num_pathways; ++i) {
    // Each pathway contains several proteins; one entry per membership.
    int members = 2 + static_cast<int>(rng.Uniform(6));
    std::string name = kPathwayNames[i % 5];
    if (i >= 5) name += " variant " + std::to_string(i);
    for (int m = 0; m < members; ++m) {
      std::string pw = N("PathwayEntry" + std::to_string(++pathway_entry));
      uint64_t gene = rng.Uniform(config.num_genes);
      g.AddIri(pw, N("protein"), N("GeneEntry" + std::to_string(gene + 1)));
      g.AddLit(pw, N("Pathway_name"), name);
      g.AddInt(pw, N("pathwayid"), i + 1);
    }
  }

  // --- SIDER records: side_effect + cid ---
  const char* kEffects[] = {"hepatomegaly", "nausea", "headache",
                            "dizziness", "rash"};
  for (int i = 0; i < config.num_sider_records; ++i) {
    std::string s = N("Sider" + std::to_string(i + 1));
    uint64_t e = effect_zipf.Sample(&rng);
    std::string effect = std::string(kEffects[e]);
    if (rng.Bernoulli(0.3)) effect += " severe";
    g.AddLit(s, N("side_effect"), effect);
    g.AddInt(s, N("cid"),
             1 + static_cast<int64_t>(rng.Uniform(config.num_compounds)));
  }

  // --- targets: DBID (drug) + SwissProt_ID (gene entry) ---
  for (int i = 0; i < config.num_targets; ++i) {
    std::string t = N("Target" + std::to_string(i + 1));
    uint64_t drug = rng.Uniform(config.num_drugs);
    g.AddIri(t, N("DBID"), N("Drug" + std::to_string(drug + 1)));
    uint64_t gene = rng.Uniform(config.num_genes);
    g.AddIri(t, N("SwissProt_ID"),
             N("GeneEntry" + std::to_string(gene + 1)));
  }

  // --- Medline publications (LARGE): gene + side_effect + disease ---
  for (int i = 0; i < config.num_publications; ++i) {
    std::string pmid = N("PMID" + std::to_string(i + 1));
    uint64_t gene = medline_gene_zipf.Sample(&rng);
    g.AddIri(pmid, N("medline_gene"), N("GeneEntry" + std::to_string(gene + 1)));
    uint64_t e = rng.Uniform(5);
    g.AddLit(pmid, N("side_effect"), kEffects[e]);
    if (rng.Bernoulli(0.7)) {
      uint64_t d = disease_zipf.Sample(&rng);
      g.AddIri(pmid, N("disease"), N("Disease" + std::to_string(d + 1)));
    }
  }
  return g;
}

}  // namespace rapida::workload
