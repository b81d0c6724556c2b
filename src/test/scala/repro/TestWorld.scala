package repro

import repro.geo.{RoadNetwork, RoutePlanner, Segment, XY}
import repro.nn.{Node2Vec, Tensor}
import repro.traj.{GenConfig, Traj, TrajGen}

/** Shared small-world fixture: one compact city, a trajectory corpus, its
  * Node2Vec embeddings and a fitted route planner — built once per JVM and
  * reused across suites to keep the test run fast.
  */
object TestWorld {
  val net: RoadNetwork = RoadNetwork.generate(
    RoadNetwork.CityConfig("tw", gridW = 10, gridH = 9, spacingM = 190, seed = 33))

  val cfg: GenConfig = GenConfig(epsilon = 15, avgPoints = 36)

  lazy val trajs: IndexedSeq[Traj] = TrajGen.generateLocal(net, cfg, 260, seed = 2)
  lazy val trainSet: IndexedSeq[Traj] = trajs.slice(0, 160)
  lazy val testSet: IndexedSeq[Traj] = trajs.slice(200, 260)

  lazy val node2vec: Tensor = Node2Vec.train(net, dim = 32, epochs = 2, walksPerSeg = 4)

  lazy val planner: RoutePlanner = RoutePlanner.fit(net, trainSet.map(_.route.toSeq))

  /** Three nodes in a row: 0 <-> 1 is a two-way road, 1 -> 2 is a one-way
    * street into a dead end, so nothing is reachable from node 2 (or from
    * segment 2).
    */
  def oneWayDeadEnd: RoadNetwork = {
    val nodes = Array(XY(0, 0), XY(100, 0), XY(200, 0))
    def seg(id: Int, from: Int, to: Int) =
      Segment(id, from, to, nodes(from), nodes(to), nodes(from).dist(nodes(to)))
    new RoadNetwork("one-way", nodes,
      Array(seg(0, 0, 1), seg(1, 1, 0), seg(2, 1, 2)))
  }
}
