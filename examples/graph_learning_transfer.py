#!/usr/bin/env python3
"""Graph-learning transfer: recycle MTGNN's learned graph (Experiment C).

For a couple of participants:

1. train MTGNN with its graph learner warm-started from the kNN graph;
2. export and post-process the learned adjacency;
3. compare the learned graph to the static one (correlation statistic);
4. retrain ASTGCN twice — once with the static kNN graph, once with the
   MTGNN-learned refinement — and report the per-individual % change in
   test MSE (Fig. 3's red annotations).

Run:  python examples/graph_learning_transfer.py
"""

import numpy as np

import repro.autodiff as ad
from repro.data import PreprocessingPipeline, SynthesisConfig, generate_cohort, split_windows
from repro.graphs import build_adjacency, graph_correlation, prepare_learned_graph
from repro.models import create_model
from repro.training import Trainer, TrainerConfig

ad.set_default_dtype(np.float32)

SEQ_LEN = 5
EPOCHS = 50


def train_and_score(name, person, graph, seed):
    split = split_windows(person.values, SEQ_LEN)
    model = create_model(name, person.num_variables, SEQ_LEN,
                         adjacency=graph, seed=seed)
    trainer = Trainer(TrainerConfig(epochs=EPOCHS))
    trainer.fit(model, split.train)
    return model, trainer.evaluate(model, split.test)


def main() -> None:
    raw = generate_cohort(SynthesisConfig(num_individuals=12, seed=33))
    cohort, _ = PreprocessingPipeline(min_compliance=0.5, max_individuals=2).run(raw)

    changes = []
    for person in cohort:
        split_boundary = int(round(0.7 * person.num_time_points))
        static = build_adjacency(person.values[:split_boundary], "knn",
                                 gdt=0.2, k=5)

        mtgnn, mtgnn_mse = train_and_score("mtgnn", person, static, seed=11)
        learned = prepare_learned_graph(mtgnn.learned_graph(),
                                        match_edges_of=static)
        similarity = graph_correlation(static, learned)

        _, static_mse = train_and_score("astgcn", person, static, seed=11)
        _, learned_mse = train_and_score("astgcn", person, learned, seed=11)
        pct = (learned_mse - static_mse) / static_mse * 100.0
        changes.append(pct)

        print(f"{person.identifier}: MTGNN {mtgnn_mse:.3f} | "
              f"ASTGCN kNN {static_mse:.3f} -> kNN_learned {learned_mse:.3f} "
              f"({pct:+.1f}%) | graph similarity {similarity * 100:.0f}%")

    print(f"\nmean relative change: {np.mean(changes):+.1f}% "
          "(negative = the learned graph helped, as Fig. 3 reports for kNN)")


if __name__ == "__main__":
    main()
