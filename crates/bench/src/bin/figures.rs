//! Regenerates the paper's tables and figures on the deterministic
//! multiprocessor simulator.
//!
//! ```text
//! cargo run -p wlp-bench --release --bin figures            # everything
//! cargo run -p wlp-bench --release --bin figures -- fig6    # one exhibit
//! ```
//!
//! Exhibits: `table1 table2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 costmodel certifier fission ablation-strip ablation-window
//! ablation-chunk ablation-hedge ablation-doacross ablation-balance
//! gantt profile faults`.

use wlp_bench::{exhibit, EXHIBITS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        EXHIBITS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for name in wanted {
        match exhibit(name) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!(
                    "unknown exhibit `{name}`; available: {}",
                    EXHIBITS.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
}
