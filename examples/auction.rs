//! Distribution-heavy scenario: an auction house deployed on its own
//! node, with bidders calling in from two client nodes. Adds the
//! logging concern (call tracing) and the concurrency concern
//! (serializing `placeBid` on a named lock) on top of distribution —
//! demonstrating that concern modules compose and that precedence
//! follows the transformation order.
//!
//! Run with: `cargo run --example auction`

use comet::MdaLifecycle;
use comet_codegen::{Block, BodyProvider, Expr, IrBinOp, IrType, LValue, Stmt};
use comet_concerns::{concurrency, distribution, logging};
use comet_interp::{Interp, Value};
use comet_model::sample::auction_pim;
use comet_model::{Model, TypeRef};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;

/// The sample auction PIM, extended with a `current: Auction` slot so the
/// functional bodies have state.
fn pim() -> Model {
    let mut model = auction_pim();
    let house = model.find_class("AuctionHouse").expect("sample class");
    let auction = model.find_class("Auction").expect("sample class");
    model.add_attribute(house, "current", TypeRef::Element(auction)).expect("fresh attribute");
    model
}

fn bodies() -> BodyProvider {
    let auction_field =
        |name: &str| Expr::Field { recv: Box::new(Expr::this_field("current")), name: name.into() };
    // openAuction(item, reserve): current = new Auction(item, reserve, "", true); return 1
    let open = Block::of(vec![
        Stmt::set_this_field(
            "current",
            Expr::New {
                class: "Auction".into(),
                args: vec![
                    Expr::var("item"),
                    Expr::var("reserve"),
                    Expr::str(""),
                    Expr::bool(true),
                ],
            },
        ),
        Stmt::ret(Expr::int(1)),
    ]);
    // placeBid(auctionId, bidder, amount): only higher bids on open auctions win.
    let bid = Block::of(vec![
        Stmt::If {
            cond: Expr::binary(IrBinOp::Eq, Expr::this_field("current"), Expr::null()),
            then_block: Block::of(vec![Stmt::ret(Expr::bool(false))]),
            else_block: None,
        },
        Stmt::If {
            cond: Expr::Unary {
                op: comet_codegen::IrUnOp::Not,
                operand: Box::new(auction_field("open")),
            },
            then_block: Block::of(vec![Stmt::ret(Expr::bool(false))]),
            else_block: None,
        },
        Stmt::If {
            cond: Expr::binary(IrBinOp::Le, Expr::var("amount"), auction_field("highestBid")),
            then_block: Block::of(vec![Stmt::ret(Expr::bool(false))]),
            else_block: None,
        },
        Stmt::Assign {
            target: LValue::Field { recv: Expr::this_field("current"), name: "highestBid".into() },
            value: Expr::var("amount"),
        },
        Stmt::Assign {
            target: LValue::Field {
                recv: Expr::this_field("current"),
                name: "highestBidder".into(),
            },
            value: Expr::var("bidder"),
        },
        Stmt::ret(Expr::bool(true)),
    ]);
    // close(auctionId): open = false; return winner
    let close = Block::of(vec![
        Stmt::Assign {
            target: LValue::Field { recv: Expr::this_field("current"), name: "open".into() },
            value: Expr::bool(false),
        },
        Stmt::local("winner", IrType::Str, auction_field("highestBidder")),
        Stmt::ret(Expr::var("winner")),
    ]);
    BodyProvider::new()
        .provide("AuctionHouse::openAuction", open)
        .provide("AuctionHouse::placeBid", bid)
        .provide("AuctionHouse::close", close)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workflow = WorkflowModel::new("auction")
        .step("distribution", false)
        .step("concurrency", false)
        .step("logging", true);
    let mut mda = MdaLifecycle::new(pim(), workflow)?;

    mda.apply_concern(
        &distribution::pair(),
        ParamSet::new()
            .with("server_class", ParamValue::from("AuctionHouse"))
            .with("node", ParamValue::from("auction-node"))
            .with("registry", ParamValue::from("auctions/main"))
            .with(
                "operations",
                ParamValue::from(vec![
                    "openAuction".to_owned(),
                    "placeBid".to_owned(),
                    "close".to_owned(),
                ]),
            ),
    )?;
    mda.apply_concern(
        &concurrency::pair(),
        ParamSet::new()
            .with("methods", ParamValue::from(vec!["AuctionHouse.placeBid".to_owned()]))
            .with("lock", ParamValue::from("bids")),
    )?;
    mda.apply_concern(
        &logging::pair(),
        ParamSet::new()
            .with("targets", ParamValue::from(vec!["AuctionHouse.*".to_owned()]))
            .with("level", ParamValue::from("info")),
    )?;
    println!("applied: {:?}", mda.workflow().applied());
    println!("remaining: {:?}", mda.remaining_concerns());

    let system = mda.generate(&bodies(), comet::Backend::JavaFunctional)?;
    let mut interp = Interp::new(system.woven().clone());
    for node in ["auction-node", "bidder-east", "bidder-west"] {
        interp.add_node(node);
    }
    let house = interp.create_on("AuctionHouse", "auction-node")?;
    interp.set_field(&house, "name", Value::from("Grand Hall"))?;
    interp.call(house.clone(), "registerRemote", vec![])?;

    // Open the auction from the east coast.
    interp.middleware_mut().bus.set_current_node("bidder-east")?;
    interp.call(house.clone(), "openAuction", vec![Value::from("a violin"), Value::Int(100)])?;

    // Alternating bids from the two client nodes.
    let mut accepted = 0;
    for round in 0..6 {
        let (node, bidder) =
            if round % 2 == 0 { ("bidder-east", "east") } else { ("bidder-west", "west") };
        interp.middleware_mut().bus.set_current_node(node)?;
        let amount = 90 + round * 20; // round 0 is below the reserve
        let ok = interp.call(
            house.clone(),
            "placeBid",
            vec![Value::Int(1), Value::from(bidder), Value::Int(amount)],
        )?;
        println!("bid {amount} from {bidder}: {ok}");
        if ok == Value::Bool(true) {
            accepted += 1;
        }
    }
    let winner = interp.call(house.clone(), "close", vec![Value::Int(1)])?;
    println!("auction closed, winner: {winner}");
    assert_eq!(winner, Value::from("west"));
    assert_eq!(accepted, 5);

    // Middleware evidence of all three concerns.
    let bus = interp.middleware().bus.stats();
    let locks = interp.middleware().locks.stats();
    let log = &interp.middleware().log;
    println!(
        "\nbus: {} messages across {} nodes | lock `bids` acquisitions: {} | log records: {}",
        bus.delivered,
        interp.middleware().bus.nodes().len(),
        locks.acquired,
        log.len()
    );
    println!(
        "east-coast link: {:?}",
        interp.middleware().bus.link_stats("bidder-east", "auction-node")
    );
    for record in log.records().iter().take(4) {
        println!("  [{:>6}us] {} {}", record.at_us, record.level, record.message);
    }
    assert_eq!(locks.acquired, 6, "every placeBid serialized on `bids`");
    assert_eq!(log.count_level("info") % 2, 0, "enter/exit pairs");
    Ok(())
}
