//! **Table 1** — characteristics of the benchmark graphs
//! (paper: nodes / edges / diameter for twitter, livejournal, roads-CA/PA/TX,
//! mesh1000; here: their synthetic substitutes, see `pardec_bench::workloads`).

use pardec_bench::{report::Table, scale_from_args, timed, workloads};

fn main() {
    let scale = scale_from_args();
    println!("Table 1: dataset characteristics (scale {scale:?})\n");
    let mut t = Table::new(["dataset", "(stands in for)", "nodes", "edges", "diameter"]);
    for d in workloads::datasets(scale) {
        let (delta, secs) = timed(|| workloads::exact_diameter(&d.graph));
        eprintln!("[table1] {}: exact diameter in {secs:.2}s", d.name);
        t.row([
            d.name.to_string(),
            d.paper_name.to_string(),
            d.graph.num_nodes().to_string(),
            d.graph.num_edges().to_string(),
            delta.to_string(),
        ]);
    }
    t.print();
    println!("\npaper (original datasets): twitter 39.8M/684M/16, livejournal 4.0M/34.7M/21,");
    println!("roads-CA 1.97M/2.77M/849, roads-PA 1.09M/1.54M/786, roads-TX 1.38M/1.92M/1054,");
    println!("mesh1000 1.0M/2.0M/1998");
}
